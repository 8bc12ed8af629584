// Seeded determinism of the drift-scenario machinery: the observation
// stream, drift trajectories, and full runner results are pure functions
// of the config — invariant across generation thread counts and repeated
// runs (the property every oracle and metamorphic comparison in this
// directory silently relies on).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "scenario/scenario.h"
#include "service/sharded_collation_service.h"

namespace wafp::scenario {
namespace {

ScenarioConfig base_config() {
  ScenarioConfig config;
  config.num_users = 64;
  config.epochs = 6;
  config.seed = 606;
  config.drift.stack_swap_rate = 0.12;
  config.drift.simd_tier_rate = 0.08;
  config.drift.jitter_regime_rate = 0.07;
  return config;
}

// Digest generation is embarrassingly parallel over users; the thread
// count must never leak into a single digest or metric.
TEST(ScenarioDeterminismTest, ThreadCountIsInvisible) {
  ScenarioConfig config = base_config();
  config.threads = 1;
  const ScenarioResult baseline = ScenarioRunner(config).run();
  for (const std::size_t threads : {2, 8}) {
    config.threads = threads;
    const ScenarioResult result = ScenarioRunner(config).run();
    EXPECT_EQ(result.epochs, baseline.epochs) << "threads " << threads;
    EXPECT_EQ(result.component_checksum, baseline.component_checksum)
        << "threads " << threads;
    EXPECT_EQ(result.drift_events, baseline.drift_events)
        << "threads " << threads;
  }
}

// There is one collation engine: a request for shards is an error, never
// a silent single-loop run. make_engine is the benchmark's compatibility
// shim and goes with it.
TEST(ScenarioDeterminismTest, ShardRequestsAreRefused) {
  EXPECT_THROW((void)service::make_engine(service::ServiceConfig{}, 3),
               std::invalid_argument);
  EXPECT_NE(service::make_engine(service::ServiceConfig{}, 0), nullptr);
  ScenarioConfig config = base_config();
  config.shards = 2;
  EXPECT_THROW(ScenarioRunner{config}, std::invalid_argument);
}

TEST(ScenarioDeterminismTest, RepeatedRunsAreBitIdentical) {
  const ScenarioConfig config = base_config();
  const ScenarioResult first = ScenarioRunner(config).run();
  const ScenarioResult second = ScenarioRunner(config).run();
  EXPECT_EQ(first.epochs, second.epochs);
  EXPECT_EQ(first.component_checksum, second.component_checksum);
  EXPECT_EQ(first.drift_events, second.drift_events);
}

// Two independently constructed streams over the same population emit the
// byte-identical observation sequence, epoch by epoch — including the
// multi-threaded one.
TEST(ScenarioDeterminismTest, StreamIsReplayable) {
  const ScenarioConfig config = base_config();
  ScenarioPopulation population(config.num_users, config.seed, config.tuning,
                                config.drift);
  ScenarioStream serial(population, ObservationSource::kSynthetic,
                        default_scenario_vectors(), /*threads=*/1);
  ScenarioStream threaded(population, ObservationSource::kSynthetic,
                          default_scenario_vectors(), /*threads=*/4);
  for (std::uint32_t e = 0; e < config.epochs; ++e) {
    const std::vector<Observation> a = serial.epoch(e);
    const std::vector<Observation> b = threaded.epoch(e);
    ASSERT_EQ(a.size(), b.size()) << "epoch " << e;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].user, b[i].user) << "epoch " << e << " index " << i;
      ASSERT_EQ(a[i].vector, b[i].vector) << "epoch " << e << " index " << i;
      ASSERT_EQ(a[i].digest, b[i].digest) << "epoch " << e << " index " << i;
    }
    ASSERT_EQ(serial.drift_events(), threaded.drift_events()) << "epoch " << e;
  }
}

// O(epoch) random access (state_at) agrees with the incremental advance
// the stream uses — same lattice, same replay order.
TEST(ScenarioDeterminismTest, StateAtMatchesIncrementalAdvance) {
  const ScenarioConfig config = base_config();
  ScenarioPopulation population(config.num_users, config.seed, config.tuning,
                                config.drift);
  std::vector<DriftState> states(population.size());
  std::uint64_t events = 0;
  for (std::uint32_t e = 1; e <= config.epochs; ++e) {
    events += population.advance(states, e);
    for (std::size_t u = 0; u < population.size(); ++u) {
      ASSERT_EQ(population.state_at(u, e), states[u])
          << "user " << u << " epoch " << e;
    }
  }
  EXPECT_GT(events, 0U) << "drift rates chosen to produce events";
}

// Zero drift state reconstructs the enrolled user bit-identically — the
// anchor of the zero-drift tie-back in the metamorphic suite.
TEST(ScenarioDeterminismTest, ZeroStateReconstructsBaseUser) {
  const ScenarioConfig config = base_config();
  ScenarioPopulation population(config.num_users, config.seed, config.tuning,
                                config.drift);
  for (std::size_t u = 0; u < population.size(); ++u) {
    const platform::StudyUser evolved = population.user_at(u, DriftState{});
    const platform::StudyUser& base = population.base_user(u);
    EXPECT_EQ(evolved.seed, base.seed) << "user " << u;
    EXPECT_EQ(evolved.profile.audio, base.profile.audio) << "user " << u;
    EXPECT_EQ(evolved.profile.simd_tier, base.profile.simd_tier)
        << "user " << u;
    EXPECT_EQ(evolved.profile.fickle.flakiness, base.profile.fickle.flakiness)
        << "user " << u;
  }
}

}  // namespace
}  // namespace wafp::scenario
