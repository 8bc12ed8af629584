#include "fingerprint/render_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fingerprint/batch_renderer.h"
#include "fingerprint/vector.h"
#include "platform/catalog.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wafp::fingerprint {
namespace {

std::vector<platform::PlatformProfile> sample_profiles(std::size_t n) {
  platform::DeviceCatalog catalog;
  util::Rng rng(99);
  std::vector<platform::PlatformProfile> profiles;
  profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    profiles.push_back(catalog.sample_profile(rng));
  }
  return profiles;
}

/// A stand-in vector that builds no graph: state i's digest covers just
/// the state number. It counts every engine pass and every state rendered,
/// so a test can see a duplicate render, and can be told to fail its next
/// renders.
class CountingVector final : public AudioFingerprintVector {
 public:
  VectorId id() const override { return VectorId::kFft; }
  double jitter_susceptibility() const override { return 1.0; }

  mutable std::atomic<std::size_t> passes{0};
  mutable std::atomic<std::size_t> states_rendered{0};
  mutable std::atomic<int> failures_left{0};

 protected:
  void render_taps(webaudio::OfflineAudioContext& /*ctx*/,
                   std::span<const webaudio::RenderJitter> jitters,
                   std::span<DigestTap> taps) const override {
    passes.fetch_add(1);
    states_rendered.fetch_add(jitters.size());
    if (failures_left.fetch_sub(1) > 0) {
      throw std::runtime_error("injected render failure");
    }
    // Long enough for racing lookups to find the entries in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (std::size_t i = 0; i < jitters.size(); ++i) {
      const auto state = static_cast<float>(jitters[i].state);
      taps[i].write(std::span<const float>(&state, 1));
    }
  }
};

TEST(RenderCacheTest, HitOnRepeatLookup) {
  RenderCache cache;
  const auto profiles = sample_profiles(1);
  const auto& vec = audio_vector(VectorId::kDc);
  const util::Digest first = cache.get(vec, profiles[0], 0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.entries(), 1u);
  const util::Digest second = cache.get(vec, profiles[0], 0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(RenderCacheTest, DistinguishesVectorAndJitterState) {
  RenderCache cache;
  const auto profiles = sample_profiles(1);
  (void)cache.get(audio_vector(VectorId::kDc), profiles[0], 0);
  (void)cache.get(audio_vector(VectorId::kFft), profiles[0], 0);
  (void)cache.get(audio_vector(VectorId::kFft), profiles[0], 1);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(RenderCacheTest, MatchesDirectRender) {
  RenderCache cache;
  const auto profiles = sample_profiles(4);
  for (const auto& p : profiles) {
    for (const VectorId id : {VectorId::kDc, VectorId::kHybrid}) {
      const auto& vec = audio_vector(id);
      webaudio::RenderJitter jitter;
      jitter.state = 1;
      EXPECT_EQ(cache.get(vec, p, 1), vec.run(p, jitter));
    }
  }
}

TEST(RenderCacheTest, ConcurrentHammerStaysConsistent) {
  // Many threads hammering a small key space: every digest must match the
  // serial render, and the counters must reconcile with the lookup count.
  // With --gtest_filter under TSan this is the test that proves the shard
  // striping sound.
  RenderCache cache;
  const auto profiles = sample_profiles(6);
  const auto ids = audio_vector_ids();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsPerThread = 400;

  // Serial ground truth (separate cache).
  RenderCache reference;
  std::vector<util::Digest> expected;
  for (const auto& p : profiles) {
    for (const VectorId id : ids) {
      expected.push_back(reference.get(audio_vector(id), p, 2));
    }
  }

  util::ThreadPool pool(kThreads);
  std::atomic<std::size_t> mismatches{0};
  pool.parallel_for_each(kThreads, [&](std::size_t t) {
    util::Rng rng(1000 + t);
    for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
      const std::size_t pi = rng.next_below(profiles.size());
      const std::size_t vi = rng.next_below(ids.size());
      const util::Digest& d =
          cache.get(audio_vector(ids[vi]), profiles[pi], 2);
      if (d != expected[pi * ids.size() + vi]) mismatches.fetch_add(1);
    }
  });

  EXPECT_EQ(mismatches.load(), 0u);
  // Every lookup was either a hit or a miss...
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kLookupsPerThread);
  // ...exactly one render per distinct key (claim gating: racers wait
  // instead of re-rendering), and the key space bounds the entry count.
  EXPECT_EQ(cache.entries(), cache.misses());
  EXPECT_LE(cache.entries(), profiles.size() * ids.size());
  EXPECT_GE(cache.entries(), 1u);
}

TEST(RenderCacheTest, LookupsRacingGroupRendersNeverRenderAStateTwice) {
  // A BatchRenderer group render, an overlapping render_group() and plain
  // get()s race on one (stack, vector) group. Whoever claims a state
  // renders it; everyone else waits for it (a dedup wait), so every state
  // is rendered exactly once and every digest is the solo render's.
  const auto profiles = sample_profiles(1);
  const platform::PlatformProfile& p = profiles[0];
  const std::vector<std::uint32_t> states = {0, 1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> overlap = {4, 5, 6, 7};
  CountingVector reference_vector;
  std::vector<util::Digest> expected;
  for (std::uint32_t s = 0; s < 8; ++s) {
    expected.push_back(reference_vector.run(p, {.state = s}));
  }

  for (int trial = 0; trial < 20; ++trial) {
    CountingVector vec;
    RenderCache cache;
    BatchRenderer batch(cache);
    for (const std::uint32_t s : states) batch.request(vec, p, s);
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] { (void)batch.render_all(1); });
    threads.emplace_back([&] { cache.render_group(vec, p, overlap); });
    for (std::size_t t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < states.size(); ++i) {
          const std::uint32_t s = states[(i + 2 * t + trial) % states.size()];
          if (cache.get(vec, p, s) != expected[s]) mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(vec.states_rendered.load(), 8u) << "trial " << trial;
    EXPECT_EQ(cache.misses(), 8u);
    EXPECT_EQ(cache.entries(), 8u);
    EXPECT_EQ(cache.renders(), vec.passes.load());
    EXPECT_EQ(cache.hits() + cache.misses(), 6u + 4u + 3u * 6u);
  }
}

TEST(RenderCacheTest, AFailedRenderIsClaimedAgainByTheNextLookup) {
  // A render that throws must not leave its entries in flight forever:
  // they are abandoned, and the next lookup of each claims and renders it.
  const auto profiles = sample_profiles(1);
  const platform::PlatformProfile& p = profiles[0];
  CountingVector reference_vector;
  CountingVector vec;
  vec.failures_left = 1;
  RenderCache cache;
  const std::vector<std::uint32_t> group = {0, 1};
  EXPECT_THROW(cache.render_group(vec, p, group), std::runtime_error);
  EXPECT_EQ(cache.renders(), 0u);
  EXPECT_EQ(cache.get(vec, p, 1), reference_vector.run(p, {.state = 1}));
  EXPECT_EQ(cache.renders(), 1u);
  cache.render_group(vec, p, group);  // re-claims state 0; state 1 is a hit
  EXPECT_EQ(cache.renders(), 2u);
  EXPECT_EQ(cache.get(vec, p, 0), reference_vector.run(p, {.state = 0}));
  EXPECT_EQ(vec.states_rendered.load(), 2u + 1u + 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 2u);
}

}  // namespace
}  // namespace wafp::fingerprint
