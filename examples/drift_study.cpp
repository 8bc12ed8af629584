// Longitudinal drift study: how well does a web-audio fingerprint hold up
// as an authentication factor while the cohort's browsers upgrade, CPUs
// get replaced, and schedulers shift jitter regimes?
//
// Runs a seeded drift scenario (src/scenario) through the collation
// engine and prints the per-epoch scorecard — FMR/FNMR, anonymity-set
// sizes, and cluster churn — followed by the aggregate verification rates.
// Zero drift rates reproduce the static study's partition exactly (the
// metamorphic suite in tests/scenario asserts it bit-for-bit).
//
//   ./build/examples/drift_study [--users N] [--epochs K]
//                                [--stack-swap-rate R] [--simd-rate R]
//                                [--jitter-rate R] [--fresh-variants]
//                                [--rendered] [--seed S]
#include <cstdio>

#include "scenario/scenario.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wafp;

  scenario::ScenarioConfig config;
  config.num_users = 500;
  config.epochs = 12;
  config.seed = 2022;
  config.drift.stack_swap_rate = 0.03;
  config.drift.simd_tier_rate = 0.015;
  config.drift.jitter_regime_rate = 0.01;
  bool rendered = false;

  util::FlagParser flags(
      "drift_study",
      "Longitudinal FMR/FNMR study of web-audio fingerprints under "
      "browser/hardware drift (paper follow-up; DESIGN.md §3k).");
  flags.flag("--users", &config.num_users, "cohort size");
  flags.flag("--epochs", &config.epochs,
             "epochs incl. enrollment (epoch 0 never probes)");
  flags.flag("--stack-swap-rate", &config.drift.stack_swap_rate,
             "per-user per-epoch browser/libm upgrade probability");
  flags.flag("--simd-rate", &config.drift.simd_tier_rate,
             "per-user per-epoch SIMD-tier change probability");
  flags.flag("--jitter-rate", &config.drift.jitter_regime_rate,
             "per-user per-epoch jitter-regime shift probability");
  flags.flag("--fresh-variants", &config.drift.fresh_variants,
             "stack swaps land on never-seen variants (worst case)");
  flags.flag("--rendered", &rendered,
             "render real DSP digests instead of the synthetic stream "
             "(slower; keep the cohort small)");
  flags.flag("--seed", &config.seed, "population seed");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (rendered) config.source = scenario::ObservationSource::kRendered;

  std::printf("drift_study: %zu users, %u epochs, %s digests, "
              "drift %.3f/%.3f/%.3f%s\n\n",
              config.num_users, config.epochs,
              rendered ? "rendered" : "synthetic",
              config.drift.stack_swap_rate, config.drift.simd_tier_rate,
              config.drift.jitter_regime_rate,
              config.drift.fresh_variants ? " (fresh variants)" : "");

  scenario::ScenarioRunner runner(config);
  const scenario::ScenarioResult result = runner.run();

  std::printf("%6s %7s %8s %8s %9s %9s %7s %7s %8s\n", "epoch", "drift",
              "FNMR", "FMR", "merges", "splits", "clust", "min_k",
              "median_k");
  for (const scenario::VerificationEpoch& epoch : result.epochs) {
    if (epoch.epoch == 0) {
      std::printf("%6u %7llu %8s %8s %9s %9s %7zu %7zu %8zu  (enrollment)\n",
                  epoch.epoch,
                  static_cast<unsigned long long>(epoch.drift_events), "-",
                  "-", "-", "-", epoch.cluster_count, epoch.anonymity.min_k,
                  epoch.anonymity.median_k);
      continue;
    }
    std::printf("%6u %7llu %8.4f %8.1e %9llu %9llu %7zu %7zu %8zu\n",
                epoch.epoch,
                static_cast<unsigned long long>(epoch.drift_events),
                epoch.verification.fnmr(), epoch.verification.fmr(),
                static_cast<unsigned long long>(epoch.churn.merge_pairs),
                static_cast<unsigned long long>(epoch.churn.split_pairs),
                epoch.cluster_count, epoch.anonymity.min_k,
                epoch.anonymity.median_k);
  }

  const analysis::VerificationCounts totals = result.totals();
  std::printf("\naggregate: %llu probes, FNMR %.4f (%llu false non-matches), "
              "FMR %.3e (%llu false matches over %llu imposter trials)\n",
              static_cast<unsigned long long>(totals.probes), totals.fnmr(),
              static_cast<unsigned long long>(totals.false_non_matches),
              totals.fmr(),
              static_cast<unsigned long long>(totals.false_matches),
              static_cast<unsigned long long>(totals.imposter_trials));
  std::printf("drift events: %llu   partition checksum: %016llx\n",
              static_cast<unsigned long long>(result.drift_events),
              static_cast<unsigned long long>(result.component_checksum));
  return 0;
}
