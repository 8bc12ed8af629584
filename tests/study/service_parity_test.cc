#include "study/service_parity.h"

#include <gtest/gtest.h>

#include <filesystem>

namespace wafp::study {
namespace {

/// A small study shared by the parity tests (collected once).
const Dataset& study() {
  static const Dataset ds = [] {
    StudyConfig cfg;
    cfg.num_users = 60;
    cfg.iterations = 4;
    cfg.seed = 77021;
    return Dataset::collect(cfg);
  }();
  return ds;
}

TEST(ServiceParityTest, InMemoryServiceMatchesDirectGraph) {
  const auto report =
      service_collation_parity(study(), fingerprint::VectorId::kHybrid);
  EXPECT_EQ(report.submitted, report.accepted);
  EXPECT_EQ(report.accepted, report.applied);
  EXPECT_TRUE(report.match())
      << std::hex << report.direct_checksum << " vs "
      << report.service_checksum;
}

TEST(ServiceParityTest, DurableServiceWithFaultsStillMatches) {
  const std::string dir = "study_parity_state";
  std::filesystem::remove_all(dir);
  service::FaultPlan faults;
  faults.duplicate_every = 4;
  faults.reorder_every = 7;
  const auto report = service_collation_parity(
      study(), fingerprint::VectorId::kHybrid, faults, dir);
  EXPECT_TRUE(report.match())
      << std::hex << report.direct_checksum << " vs "
      << report.service_checksum;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wafp::study
