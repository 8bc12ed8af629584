// Longitudinal drift-scenario soak benchmark: a synthetic 100k+-user
// cohort streamed over 50+ epochs through the CollationService, with
// per-epoch verification (FMR/FNMR), anonymity-set stats,
// and collation churn scored along the way. Emits machine-readable
// BENCH_drift.json carrying the wafp_scenario_* metric families so the
// bench-smoke CI job can gate on schema and scale floors.
//
//   ./build/bench/drift_scenario [--smoke] [--out FILE] [--users N]
//                                [--epochs K] [--threads T]
//                                [--stack-swap-rate R] [--simd-rate R]
//                                [--jitter-rate R] [--seed S]
//
// The run double-checks its own soundness: probes/imposter-trial counts
// must match the closed forms, and with the default moderate drift the
// final FNMR must be nonzero (drift actually happened) while epoch 0
// carries no verification counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wafp;
  using Clock = std::chrono::steady_clock;

  bool smoke = false;
  std::string out_path = "BENCH_drift.json";
  scenario::ScenarioConfig config;
  config.num_users = 100000;
  config.epochs = 50;
  config.seed = 2022;
  config.threads = 0;  // default_thread_count()
  config.drift.stack_swap_rate = 0.02;
  config.drift.simd_tier_rate = 0.01;
  config.drift.jitter_regime_rate = 0.01;

  util::FlagParser flags(
      "drift_scenario",
      "Drift-scenario soak benchmark (BENCH_drift.json): synthetic cohort "
      "through the collation engine with per-epoch FMR/FNMR scoring.");
  flags.flag("--smoke", &smoke, "tiny CI-sized run");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--users", &config.num_users, "cohort size");
  flags.flag("--epochs", &config.epochs, "epochs incl. enrollment");
  flags.flag("--threads", &config.threads,
             "digest-generation threads (0 = all cores)");
  flags.flag("--stack-swap-rate", &config.drift.stack_swap_rate,
             "per-user per-epoch browser/libm upgrade probability");
  flags.flag("--simd-rate", &config.drift.simd_tier_rate,
             "per-user per-epoch SIMD-tier change probability");
  flags.flag("--jitter-rate", &config.drift.jitter_regime_rate,
             "per-user per-epoch jitter-regime shift probability");
  flags.flag("--seed", &config.seed, "population seed");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (smoke) {
    config.num_users = std::min<std::size_t>(config.num_users, 2000);
    config.epochs = std::min<std::uint32_t>(config.epochs, 8);
  }

  const std::size_t vectors = scenario::default_scenario_vectors().size();
  std::printf("drift_scenario: %zu users x %u epochs x %zu vectors, "
              "drift rates %.3f/%.3f/%.3f\n",
              config.num_users, config.epochs, vectors,
              config.drift.stack_swap_rate, config.drift.simd_tier_rate,
              config.drift.jitter_regime_rate);

  const auto start = Clock::now();
  scenario::ScenarioRunner runner(config);
  const scenario::ScenarioResult result = runner.run();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  const analysis::VerificationCounts totals = result.totals();
  const std::uint64_t submissions =
      static_cast<std::uint64_t>(config.num_users) * config.epochs * vectors;
  const scenario::VerificationEpoch& final_epoch = result.epochs.back();

  // Closed-form self-checks (the scenario suite proves the semantics; this
  // guards the bench wiring itself).
  bool sound = true;
  const std::uint64_t probe_epochs = config.epochs - 1;
  if (totals.probes != probe_epochs * config.num_users) sound = false;
  if (totals.imposter_trials !=
      totals.probes * (config.num_users - 1)) {
    sound = false;
  }
  if (!result.epochs.empty() &&
      result.epochs.front().verification.probes != 0) {
    sound = false;
  }
  if (result.drift_events == 0 && config.drift.stack_swap_rate > 0.0 &&
      config.num_users * probe_epochs > 10000) {
    sound = false;  // this much exposure must drift someone
  }

  std::printf("  ingested %llu submissions in %.2fs (%.0f/s)\n",
              static_cast<unsigned long long>(submissions), seconds,
              static_cast<double>(submissions) / seconds);
  std::printf("  drift events: %llu  FMR %.3e  FNMR %.4f\n",
              static_cast<unsigned long long>(result.drift_events),
              totals.fmr(), totals.fnmr());
  std::printf("  final epoch: %zu clusters, anonymity min/median/max "
              "%zu/%zu/%zu, churn +%llu/-%llu\n",
              final_epoch.cluster_count, final_epoch.anonymity.min_k,
              final_epoch.anonymity.median_k, final_epoch.anonymity.max_k,
              static_cast<unsigned long long>(final_epoch.churn.merge_pairs),
              static_cast<unsigned long long>(final_epoch.churn.split_pairs));
  std::printf("  soundness: %s\n", sound ? "ok" : "FAILED");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"drift_scenario\",\n"
               "  \"smoke\": %s,\n"
               "  \"users\": %zu,\n"
               "  \"epochs\": %u,\n"
               "  \"vectors\": %zu,\n"
               "  \"stack_swap_rate\": %.4f,\n"
               "  \"simd_tier_rate\": %.4f,\n"
               "  \"jitter_regime_rate\": %.4f,\n"
               "  \"submissions\": %llu,\n"
               "  \"seconds\": %.3f,\n"
               "  \"submissions_per_sec\": %.1f,\n"
               "  \"drift_events\": %llu,\n"
               "  \"probes\": %llu,\n"
               "  \"imposter_trials\": %llu,\n"
               "  \"false_matches\": %llu,\n"
               "  \"false_non_matches\": %llu,\n"
               "  \"fmr\": %.6e,\n"
               "  \"fnmr\": %.6f,\n"
               "  \"final_cluster_count\": %zu,\n"
               "  \"final_anonymity_min_k\": %zu,\n"
               "  \"final_anonymity_median_k\": %zu,\n"
               "  \"final_anonymity_max_k\": %zu,\n"
               "  \"final_merge_pairs\": %llu,\n"
               "  \"final_split_pairs\": %llu,\n"
               "  \"component_checksum\": \"%016llx\",\n"
               "  \"sound\": %s,\n"
               "  \"metrics\": %s\n"
               "}\n",
               smoke ? "true" : "false", config.num_users, config.epochs,
               vectors, config.drift.stack_swap_rate,
               config.drift.simd_tier_rate, config.drift.jitter_regime_rate,
               static_cast<unsigned long long>(submissions), seconds,
               static_cast<double>(submissions) / seconds,
               static_cast<unsigned long long>(result.drift_events),
               static_cast<unsigned long long>(totals.probes),
               static_cast<unsigned long long>(totals.imposter_trials),
               static_cast<unsigned long long>(totals.false_matches),
               static_cast<unsigned long long>(totals.false_non_matches),
               totals.fmr(), totals.fnmr(), final_epoch.cluster_count,
               final_epoch.anonymity.min_k, final_epoch.anonymity.median_k,
               final_epoch.anonymity.max_k,
               static_cast<unsigned long long>(final_epoch.churn.merge_pairs),
               static_cast<unsigned long long>(final_epoch.churn.split_pairs),
               static_cast<unsigned long long>(result.component_checksum),
               sound ? "true" : "false",
               obs::MetricsRegistry::global().render_json().c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return sound ? 0 : 1;
}
