// Differential testing of the collation service under fault injection:
// deterministic submission traces (from the shared op-sequence generator)
// run through a CollationService with drop/duplicate/reorder/append-fail
// fault plans and kill-every-k crash-recovery loops, and the resulting
// partition checksum is compared against the brute-force RefBipartiteGraph
// — an oracle that shares no code with the union-find, the WAL, or the
// snapshot path. Duplicates, reorders, transient append failures, and
// crashes must be invisible in the checksum; drops must match an explicit
// brute-force drop model, not merely "some other" result.
//
// Budget: 260 clean, 160 fault-injected and 120 durable kill-every-k
// sequences of kOpsPerSequence submissions each, plus 8 durable
// append-failure sequences.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "service/collation_service.h"
#include "testing/oracles.h"

namespace wafp::testing {
namespace {

constexpr std::size_t kOpsPerSequence = 120;

TEST(ServiceOracleTest, CleanRunMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 260; ++seed) {
    const auto trace = make_submission_trace(seed, kOpsPerSequence);
    service::CollationService svc(service::ServiceConfig{});
    for (const auto& raw : trace) {
      ASSERT_TRUE(svc.submit(raw).accepted()) << "seed " << seed;
    }
    svc.pump();
    ASSERT_EQ(svc.component_checksum(),
              brute_force_submission_checksum(trace))
        << "seed " << seed;
    const auto stats = svc.stats();
    ASSERT_EQ(stats.accepted, trace.size());
    ASSERT_EQ(stats.applied, trace.size());
  }
}

TEST(ServiceOracleTest, DuplicateReorderAndAppendFaultsAreInvisible) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto trace = make_submission_trace(seed, 200);
    const std::string dir =
        ::testing::TempDir() + "svc_oracle_faults_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    service::ServiceConfig config;
    config.state_dir = dir;
    config.snapshot_every = 64;
    config.faults.duplicate_every = 7;
    config.faults.reorder_every = 5;
    config.faults.fail_append_at = 3;     // one transient failure early...
    config.faults.fail_append_every = 41; // ...and recurring ones after
    config.sleeper = [](std::chrono::milliseconds) {};  // no real backoff
    {
      service::CollationService svc(config);
      for (const auto& raw : trace) {
        ASSERT_TRUE(svc.submit(raw).accepted());
      }
      svc.pump();
      const auto stats = svc.stats();
      EXPECT_GT(stats.duplicated_by_fault, 0u);
      EXPECT_GT(stats.wal_retries, 0u);
      EXPECT_EQ(svc.component_checksum(),
                brute_force_submission_checksum(trace))
          << "seed " << seed
          << ": duplicates/reorders/retries leaked into the partition";
    }
    std::filesystem::remove_all(dir);
  }
}

// The drop/duplicate/reorder matrix: drops follow the brute-force drop
// model on accepted ordinals, duplicates and reorders are invisible.
TEST(ServiceOracleTest, FaultMatrixMatchesTheBruteForceDropModel) {
  const std::uint64_t drop_periods[] = {0, 3, 5, 11};
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    const auto trace = make_submission_trace(seed, kOpsPerSequence);
    service::ServiceConfig config;
    config.faults.drop_every = drop_periods[seed % 4];
    config.faults.duplicate_every = (seed % 3 == 0) ? 7 : 0;
    config.faults.reorder_every = (seed % 2 == 0) ? 5 : 0;
    service::CollationService svc(config);
    for (const auto& raw : trace) {
      ASSERT_TRUE(svc.submit(raw).accepted());  // drops still ack
    }
    svc.pump();
    ASSERT_EQ(svc.component_checksum(),
              brute_force_submission_checksum(trace,
                                              config.faults.drop_every))
        << "seed " << seed << " drop_every " << config.faults.drop_every;
    if (config.faults.drop_every != 0) {
      ASSERT_EQ(svc.stats().dropped_by_fault,
                trace.size() / config.faults.drop_every)
          << "seed " << seed;
    }
  }
}

TEST(ServiceOracleTest, KillEveryKRecoveryMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const auto trace = make_submission_trace(seed, kOpsPerSequence);
    const std::string dir =
        ::testing::TempDir() + "svc_oracle_crash_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    const auto make_config = [&] {
      service::ServiceConfig config;
      config.state_dir = dir;
      config.snapshot_every = 32;  // several snapshot+truncate cycles
      config.faults.duplicate_every = 6;
      config.faults.reorder_every = 9;
      return config;
    };
    auto svc = std::make_unique<service::CollationService>(make_config());
    const std::size_t kill_every = 17 + seed % 13;  // vary the crash cadence
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_TRUE(svc->submit(trace[i]).accepted())
          << "seed " << seed << " submission " << i;
      svc->pump();  // durable before the crash window opens
      if ((i + 1) % kill_every == 0) {
        svc->crash();
        svc.reset();
        svc = std::make_unique<service::CollationService>(make_config());
      }
    }
    svc->pump();
    EXPECT_EQ(svc->component_checksum(),
              brute_force_submission_checksum(trace))
        << "seed " << seed
        << ": recovered partition diverged from the brute-force oracle";
    svc.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace wafp::testing
