// Lockstep differential testing of the streamed drift-scenario verifier:
// every epoch's FMR/FNMR counts, anonymity-set stats, cluster count, and
// pair churn out of ScenarioRunner (which streams through a real
// CollationService) must equal the brute-force RefVerifier — re-implemented
// from the normative spec comment in src/scenario/scenario.h with no
// shared code — including kill-every-k durable runs where the service
// crashes and recovers mid-scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ref_verifier.h"
#include "scenario/scenario.h"

namespace wafp::testing {
namespace {

/// Replay the scenario's observation stream (regenerated independently of
/// the runner) through the brute-force verifier, in lockstep.
std::vector<scenario::VerificationEpoch> reference_epochs(
    const scenario::ScenarioConfig& config) {
  scenario::ScenarioPopulation population(config.num_users, config.seed,
                                          config.tuning, config.drift,
                                          config.flakiness_override);
  std::vector<fingerprint::VectorId> vectors = config.vectors;
  if (vectors.empty()) vectors = scenario::default_scenario_vectors();
  scenario::ScenarioStream stream(population, config.source, vectors,
                                  /*threads=*/1);
  RefVerifier ref(config.num_users);
  std::vector<scenario::VerificationEpoch> epochs;
  std::uint64_t previous_events = 0;
  for (std::uint32_t e = 0; e < config.epochs; ++e) {
    const std::vector<scenario::Observation> observations = stream.epoch(e);
    const std::uint64_t events = stream.drift_events() - previous_events;
    previous_events = stream.drift_events();
    epochs.push_back(ref.epoch(e, observations, events));
  }
  return epochs;
}

void expect_epochs_equal(const std::vector<scenario::VerificationEpoch>& got,
                         const std::vector<scenario::VerificationEpoch>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t e = 0; e < want.size(); ++e) {
    if (got[e] == want[e]) continue;
    ADD_FAILURE() << context << ": epoch " << e << " diverged — "
                  << "probes " << got[e].verification.probes << "/"
                  << want[e].verification.probes << ", genuine "
                  << got[e].verification.genuine_accepts << "/"
                  << want[e].verification.genuine_accepts << ", fnm "
                  << got[e].verification.false_non_matches << "/"
                  << want[e].verification.false_non_matches << ", fm "
                  << got[e].verification.false_matches << "/"
                  << want[e].verification.false_matches << ", clusters "
                  << got[e].cluster_count << "/" << want[e].cluster_count
                  << ", churn +" << got[e].churn.merge_pairs << "/-"
                  << got[e].churn.split_pairs << " vs +"
                  << want[e].churn.merge_pairs << "/-"
                  << want[e].churn.split_pairs << ", min_k "
                  << got[e].anonymity.min_k << "/" << want[e].anonymity.min_k
                  << ", drift " << got[e].drift_events << "/"
                  << want[e].drift_events;
    return;
  }
}

// Moderate-drift synthetic scenarios at three seeds: the streamed runner
// matches the oracle.
TEST(ScenarioOracleTest, SyntheticLockstepAcrossSeeds) {
  for (const std::uint64_t seed : {11U, 22U, 33U}) {
    scenario::ScenarioConfig config;
    config.num_users = 48;
    config.epochs = 8;
    config.seed = seed;
    config.drift.stack_swap_rate = 0.10;
    config.drift.simd_tier_rate = 0.06;
    config.drift.jitter_regime_rate = 0.05;
    config.drift.seed = seed * 1000 + 7;
    const auto want = reference_epochs(config);

    const scenario::ScenarioResult result =
        scenario::ScenarioRunner(config).run();
    expect_epochs_equal(result.epochs, want, "seed " + std::to_string(seed));
    std::uint64_t total_events = 0;
    for (const auto& epoch : result.epochs) {
      total_events += epoch.drift_events;
    }
    EXPECT_EQ(result.drift_events, total_events);
    EXPECT_NE(result.component_checksum, 0U);
  }
}

// fresh_variants + pinned flakiness is the adversarial regime for the
// verifier (every swap lands on never-seen digests): still bit-exact
// against the oracle.
TEST(ScenarioOracleTest, FreshVariantHighDriftLockstep) {
  scenario::ScenarioConfig config;
  config.num_users = 40;
  config.epochs = 10;
  config.seed = 4242;
  config.drift.stack_swap_rate = 0.35;
  config.drift.simd_tier_rate = 0.20;
  config.drift.jitter_regime_rate = 0.15;
  config.drift.fresh_variants = true;
  config.flakiness_override = 0.4;
  const scenario::ScenarioResult result =
      scenario::ScenarioRunner(config).run();
  expect_epochs_equal(result.epochs, reference_epochs(config), "fresh");
}

// Kill-every-k durable soak: the engine is crashed (no checkpoint) and
// recovered from WAL + snapshots every 3 epochs; all probes and label
// read-backs after recovery must still match the oracle, and so must the
// partition checksum of an uninterrupted in-memory run.
TEST(ScenarioOracleTest, KillEveryKRecoveryLockstep) {
  scenario::ScenarioConfig config;
  config.num_users = 40;
  config.epochs = 9;
  config.seed = 99;
  config.drift.stack_swap_rate = 0.12;
  config.drift.simd_tier_rate = 0.08;
  config.drift.jitter_regime_rate = 0.06;
  const std::uint64_t uninterrupted =
      scenario::ScenarioRunner(config).run().component_checksum;

  const std::string dir = ::testing::TempDir() + "scenario_oracle_crash";
  std::filesystem::remove_all(dir);
  config.kill_every = 3;
  config.service.state_dir = dir;
  config.service.snapshot_every = 64;
  const scenario::ScenarioResult result =
      scenario::ScenarioRunner(config).run();
  expect_epochs_equal(result.epochs, reference_epochs(config),
                      "kill-every-3");
  EXPECT_EQ(result.component_checksum, uninterrupted);
  EXPECT_GT(result.stats.recovered_from_snapshot +
                result.stats.recovered_from_wal,
            0U)
      << "the run never recovered anything";
  std::filesystem::remove_all(dir);
}

// The rendered source (real DSP through FingerprintCollector plus the WASM
// compute batteries) obeys the same spec: lockstep parity on a small
// cohort.
TEST(ScenarioOracleTest, RenderedSourceLockstep) {
  scenario::ScenarioConfig config;
  config.num_users = 16;
  config.epochs = 4;
  config.seed = 314;
  config.source = scenario::ObservationSource::kRendered;
  config.vectors = {fingerprint::VectorId::kDc, fingerprint::VectorId::kFm,
                    fingerprint::VectorId::kWasmFloat,
                    fingerprint::VectorId::kWasmSimd};
  config.drift.stack_swap_rate = 0.15;
  config.drift.simd_tier_rate = 0.10;
  config.drift.jitter_regime_rate = 0.10;
  const scenario::ScenarioResult result =
      scenario::ScenarioRunner(config).run();
  expect_epochs_equal(result.epochs, reference_epochs(config), "rendered");
}

}  // namespace
}  // namespace wafp::testing
