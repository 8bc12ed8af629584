// Ablation: which platform knob contributes how much fingerprint surface?
//
// The paper's §5 ("Causal Factors") asks what drives Web Audio
// fingerprintability beyond Math JS and names browser/OS differences,
// hardware and CPU load as future work. Our reproduction models those
// factors explicitly, so we can answer the question for the simulated
// population: for each knob, keep ONLY that knob at the user's value (all
// other knobs pinned to the reference stack) and measure the Hybrid
// vector's diversity.
#include <cstdio>
#include <functional>
#include <vector>

#include "analysis/entropy.h"
#include "bench_common.h"
#include "fingerprint/render_cache.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;

  constexpr std::size_t kUsers = 2093;
  std::printf("=== Ablation: per-knob contribution to Hybrid diversity "
              "(%zu users) ===\n\n",
              kUsers);

  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, kUsers, 2021);

  struct Knob {
    const char* name;
    std::function<void(platform::AudioStack&, const platform::AudioStack&)>
        keep;
  };
  const std::vector<Knob> knobs = {
      {"math library",
       [](auto& out, const auto& in) { out.math = in.math; }},
      {"FFT build (algo+twiddles)",
       [](auto& out, const auto& in) {
         out.fft = in.fft;
         out.twiddle = in.twiddle;
       }},
      {"compressor tuning",
       [](auto& out, const auto& in) { out.compressor = in.compressor; }},
      {"analyser tuning",
       [](auto& out, const auto& in) { out.analyser = in.analyser; }},
      {"FMA contraction",
       [](auto& out, const auto& in) {
         out.fma_contraction = in.fma_contraction;
       }},
      {"denormal policy",
       [](auto& out, const auto& in) { out.denormal = in.denormal; }},
  };

  const auto& hybrid =
      fingerprint::audio_vector(fingerprint::VectorId::kHybrid);
  fingerprint::RenderCache cache;

  util::TextTable table({"Knob kept (others pinned)", "Distinct", "Entropy",
                         "e_norm"});
  auto measure = [&](const char* label,
                     const std::function<platform::AudioStack(
                         const platform::AudioStack&)>& project) {
    std::unordered_map<util::Digest, int> dense;
    std::vector<int> labels;
    labels.reserve(kUsers);
    for (const auto& user : population.users()) {
      platform::PlatformProfile probe = user.profile;
      probe.audio = project(user.profile.audio);
      const util::Digest& d = cache.get(hybrid, probe, 0);
      const auto [it, inserted] =
          dense.try_emplace(d, static_cast<int>(dense.size()));
      labels.push_back(it->second);
    }
    const auto stats = analysis::diversity_from_labels(labels);
    table.add_row({label, util::TextTable::fmt(stats.distinct),
                   util::TextTable::fmt(stats.entropy),
                   util::TextTable::fmt(stats.normalized)});
  };

  for (const Knob& knob : knobs) {
    measure(knob.name, [&](const platform::AudioStack& in) {
      platform::AudioStack out;  // reference defaults
      knob.keep(out, in);
      return out;
    });
  }
  measure("ALL knobs (full stack)",
          [](const platform::AudioStack& in) { return in; });

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading: the math library and compressor tuning dominate the "
      "DC-visible\nsurface; the FFT build dominates the analyser-visible "
      "surface; FMA and\ndenormal policy contribute little alone but split "
      "otherwise-identical stacks.\nThis is the quantified version of the "
      "paper's §5 causal-factors discussion.\n");
  return 0;
}
