// One engine pass per (stack, vector): AudioFingerprintVector::run_states
// renders a graph once and digests several jitter states from it. Render
// jitter reaches only the analyser's capture readers, so every state's
// digest and captured stream must equal the solo run() with that jitter —
// bit for bit, on the portable golden stacks and on sampled catalog
// profiles, for every audio vector.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fingerprint/vector.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "testing/stacks.h"
#include "util/rng.h"

namespace wafp::fingerprint {
namespace {

std::vector<platform::PlatformProfile> test_profiles() {
  std::vector<platform::PlatformProfile> profiles;
  for (const testing::GoldenStack& golden : testing::golden_stacks()) {
    profiles.push_back(testing::profile_for(golden.stack));
  }
  const platform::DeviceCatalog catalog;
  util::Rng rng(515);
  for (int i = 0; i < 2; ++i) profiles.push_back(catalog.sample_profile(rng));
  return profiles;
}

std::vector<VectorId> all_audio_ids() {
  const VectorRegistry& registry = VectorRegistry::instance();
  std::vector<VectorId> ids(registry.audio_ids().begin(),
                            registry.audio_ids().end());
  ids.insert(ids.end(), registry.extension_ids().begin(),
             registry.extension_ids().end());
  return ids;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class GroupedRenderTest : public ::testing::TestWithParam<VectorId> {};

TEST_P(GroupedRenderTest, MultiStateRenderEqualsSoloRuns) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  // States {0, 1, 2} plus a chaotic glitch: k + 2 captures of one render.
  const std::vector<webaudio::RenderJitter> jitters = {
      {.state = 0}, {.state = 1}, {.state = 2}, {.chaos_seed = 0xC4A05EED}};
  for (const platform::PlatformProfile& profile : test_profiles()) {
    std::vector<util::Digest> digests(jitters.size());
    std::vector<std::vector<float>> streams(jitters.size());
    std::vector<std::vector<float>*> captures;
    for (auto& stream : streams) captures.push_back(&stream);
    vector.run_states(profile, jitters, digests, captures);

    for (std::size_t i = 0; i < jitters.size(); ++i) {
      std::vector<float> solo;
      EXPECT_EQ(digests[i], vector.run(profile, jitters[i], &solo))
          << vector.name() << " state " << i;
      EXPECT_TRUE(same_bits(streams[i], solo))
          << vector.name() << " state " << i << ": " << streams[i].size()
          << " vs " << solo.size() << " samples";
    }
    // The states are really distinct captures wherever an analyser reads
    // them; DC has none, so every state shares its one digest.
    if (GetParam() == VectorId::kDc) {
      EXPECT_EQ(digests[0], digests[1]);
      EXPECT_EQ(digests[0], digests[3]);
    } else {
      EXPECT_NE(digests[0], digests[1]) << vector.name();
      EXPECT_NE(digests[1], digests[2]) << vector.name();
      EXPECT_NE(digests[0], digests[3]) << vector.name();
    }
  }
}

TEST_P(GroupedRenderTest, DigestsDoNotDependOnGroupOrderOrCapture) {
  const AudioFingerprintVector& vector = audio_vector(GetParam());
  const platform::PlatformProfile profile =
      testing::profile_for(testing::golden_stacks()[0].stack);
  const std::vector<webaudio::RenderJitter> forward = {
      {.state = 0}, {.state = 3}, {.state = 1}};
  const std::vector<webaudio::RenderJitter> backward(forward.rbegin(),
                                                     forward.rend());
  std::vector<util::Digest> a(forward.size());
  std::vector<util::Digest> b(backward.size());
  vector.run_states(profile, forward, a);
  vector.run_states(profile, backward, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[a.size() - 1 - i]) << vector.name() << " " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAudioVectors, GroupedRenderTest, ::testing::ValuesIn(all_audio_ids()),
    [](const ::testing::TestParamInfo<VectorId>& info) {
      std::string name(to_string(info.param));
      std::erase(name, ' ');
      return name;
    });

}  // namespace
}  // namespace wafp::fingerprint
