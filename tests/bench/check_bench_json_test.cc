// check_bench_json's CLI contract for its numeric gates. A
// --require-min-parallel floor is enforced exactly like --require-min when
// the bench file records hardware_concurrency >= 2, and is SKIPPED — with
// a visible note, exit 0 — when the bench ran on a single-core host, where
// any speedup figure is timeslicing noise. --require-max is the ceiling
// twin of --require-min (inclusive, the key must exist). Exercised
// end-to-end through the real binary (path baked in by tests/CMakeLists.txt)
// because the gate is a CI shell step, not a library call.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef WAFP_CHECK_BENCH_JSON_BIN
#error "build must define WAFP_CHECK_BENCH_JSON_BIN (see tests/CMakeLists.txt)"
#endif

struct CheckerResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CheckerResult run_checker(const std::string& json_body,
                          const std::string& args, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string json_path = dir + "check_bench_" + tag + ".json";
  const std::string log_path = dir + "check_bench_" + tag + ".log";
  {
    std::ofstream out(json_path);
    out << json_body;
  }
  const std::string command = std::string(WAFP_CHECK_BENCH_JSON_BIN) + " " +
                              json_path + " " + args + " > " + log_path +
                              " 2>&1";
  const int status = std::system(command.c_str());
  CheckerResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream log(log_path);
  std::ostringstream buf;
  buf << log.rdbuf();
  result.output = buf.str();
  return result;
}

constexpr const char* kSingleCoreJson = R"({
  "benchmark": "parallel_pipeline",
  "hardware_concurrency": 1,
  "effective_parallelism": 1.0,
  "speedup_max_threads_vs_serial": 0.4
})";

constexpr const char* kMultiCoreJson = R"({
  "benchmark": "parallel_pipeline",
  "hardware_concurrency": 8,
  "effective_parallelism": 1.1,
  "speedup_max_threads_vs_serial": 1.1
})";

TEST(CheckBenchJsonTest, ParallelFloorSkippedOnSingleCoreHost) {
  const CheckerResult result = run_checker(
      kSingleCoreJson, "--require-min-parallel effective_parallelism 1.5",
      "skip_single_core");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("skipping parallel floor"), std::string::npos)
      << "the waiver must be visible in the CI log, got: " << result.output;
}

TEST(CheckBenchJsonTest, ParallelFloorSkippedWhenConcurrencyUnrecorded) {
  const CheckerResult result = run_checker(
      R"({"benchmark": "x", "effective_parallelism": 0.9})",
      "--require-min-parallel effective_parallelism 1.5", "skip_unrecorded");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("skipping parallel floor"), std::string::npos)
      << result.output;
}

TEST(CheckBenchJsonTest, ParallelFloorEnforcedOnMultiCoreHost) {
  const CheckerResult failing = run_checker(
      kMultiCoreJson, "--require-min-parallel effective_parallelism 1.5",
      "enforce_fail");
  EXPECT_EQ(failing.exit_code, 1) << failing.output;
  EXPECT_NE(failing.output.find("below the required minimum"),
            std::string::npos)
      << failing.output;

  const CheckerResult passing = run_checker(
      kMultiCoreJson, "--require-min-parallel effective_parallelism 1.05",
      "enforce_pass");
  EXPECT_EQ(passing.exit_code, 0) << passing.output;
}

TEST(CheckBenchJsonTest, PlainRequireMinIgnoresHardwareConcurrency) {
  // The unconditional floor must NOT inherit the single-core waiver.
  const CheckerResult result =
      run_checker(kSingleCoreJson, "--require-min effective_parallelism 1.5",
                  "plain_min");
  EXPECT_EQ(result.exit_code, 1) << result.output;
}

TEST(CheckBenchJsonTest, RequiredKeysStillCheckedAlongsideSkip) {
  const CheckerResult result = run_checker(
      kSingleCoreJson,
      "--require-min-parallel effective_parallelism 1.5 --require missing_key",
      "skip_plus_missing");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("missing required key"), std::string::npos)
      << result.output;
}

TEST(CheckBenchJsonTest, RequireMaxPassesAtOrBelowCeiling) {
  const CheckerResult result = run_checker(
      R"({"benchmark": "parallel_pipeline", "fig5_share": 0.02})",
      "--require-max fig5_share 0.05", "max_pass");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const CheckerResult equal = run_checker(
      R"({"benchmark": "parallel_pipeline", "fig5_share": 0.05})",
      "--require-max fig5_share 0.05", "max_equal");
  EXPECT_EQ(equal.exit_code, 0) << equal.output;
}

TEST(CheckBenchJsonTest, RequireMaxFailsAboveCeiling) {
  const CheckerResult above = run_checker(
      R"({"benchmark": "parallel_pipeline", "fig5_share": 0.63})",
      "--require-max fig5_share 0.05", "max_fail");
  EXPECT_EQ(above.exit_code, 1) << above.output;
  EXPECT_NE(above.output.find("above the required maximum"),
            std::string::npos)
      << above.output;

  const CheckerResult missing = run_checker(
      R"({"benchmark": "parallel_pipeline"})",
      "--require-max fig5_share 0.05", "max_missing");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
  EXPECT_NE(missing.output.find("missing required key"), std::string::npos)
      << missing.output;
}

}  // namespace
