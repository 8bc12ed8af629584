// Collation-service throughput and recovery benchmark: synthetic submission
// traces through the full validate -> queue -> WAL -> graph pipeline, plus
// a crash-recovery timing, emitting machine-readable BENCH_service.json so
// successive PRs can track submissions/sec and recovery latency.
//
//   ./build/bench/service_throughput [--smoke] [--out FILE]
//                                    [--submissions N] [--users N]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/collation_service.h"
#include "util/flags.h"
#include "util/hash.h"

namespace {

using namespace wafp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A synthetic trace: `users` visitors drawn from `platforms` fingerprint
/// families (so clusters actually merge), `n` submissions round-robin.
std::vector<service::RawSubmission> make_trace(std::size_t n,
                                               std::size_t users,
                                               std::size_t platforms) {
  std::vector<std::string> family_hex(platforms);
  for (std::size_t p = 0; p < platforms; ++p) {
    family_hex[p] = util::sha256("platform-" + std::to_string(p)).hex();
  }
  std::vector<service::RawSubmission> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    service::RawSubmission raw;
    raw.user = static_cast<std::uint32_t>(i % users);
    raw.vector = static_cast<std::uint32_t>(fingerprint::VectorId::kAm);
    raw.timestamp = i;
    // Mostly the user's platform family, some per-user noise digests.
    if (i % 7 == 0) {
      raw.efp_hex =
          util::sha256("noise-" + std::to_string(raw.user) + "-" +
                       std::to_string(i / users))
              .hex();
    } else {
      raw.efp_hex = family_hex[raw.user % platforms];
    }
    trace.push_back(std::move(raw));
  }
  return trace;
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t applied = 0;
  std::uint64_t checksum = 0;
};

RunResult ingest(const std::vector<service::RawSubmission>& trace,
                 const service::ServiceConfig& config) {
  service::CollationService svc(config);
  const auto start = Clock::now();
  for (const auto& raw : trace) {
    auto result = svc.submit(raw);
    while (result.reason == service::Reject::kQueueFull) {
      svc.pump();
      result = svc.submit(raw);
    }
  }
  svc.drain_and_checkpoint();
  RunResult r;
  r.seconds = seconds_since(start);
  r.applied = svc.stats().applied;
  r.checksum = svc.component_checksum();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_service.json";
  std::size_t submissions = 200000;
  std::size_t users = 5000;
  wafp::util::FlagParser flags(
      "service_throughput",
      "Collation-service ingest + recovery benchmark (BENCH_service.json).");
  flags.flag("--smoke", &smoke, "tiny CI-sized run");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--submissions", &submissions, "trace length");
  flags.flag("--users", &users, "distinct simulated users in the trace");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (smoke) {
    submissions = std::min<std::size_t>(submissions, 5000);
    users = std::min<std::size_t>(users, 500);
  }

  const auto trace = make_trace(submissions, users, users / 8 + 1);
  const std::string state_dir = "bench_service_state";
  std::filesystem::remove_all(state_dir);

  // 1) In-memory ingest (validation + queue + graph, no durability).
  service::ServiceConfig mem_cfg;
  const RunResult mem = ingest(trace, mem_cfg);
  std::printf("in-memory : %zu submissions in %.3fs (%.0f/s)\n", submissions,
              mem.seconds, static_cast<double>(submissions) / mem.seconds);

  // 2) Durable ingest: WAL every record, periodic snapshots.
  service::ServiceConfig wal_cfg;
  wal_cfg.state_dir = state_dir;
  wal_cfg.snapshot_every = smoke ? 1000 : 20000;
  const RunResult durable = ingest(trace, wal_cfg);
  std::printf("durable   : %zu submissions in %.3fs (%.0f/s)\n", submissions,
              durable.seconds,
              static_cast<double>(submissions) / durable.seconds);

  // 3) Recovery: rebuild the service from snapshot + WAL.
  const auto recovery_start = Clock::now();
  std::uint64_t recovered_checksum = 0;
  {
    service::ServiceConfig recover_cfg;
    recover_cfg.state_dir = state_dir;
    service::CollationService svc(recover_cfg);
    recovered_checksum = svc.component_checksum();
  }
  const double recovery_seconds = seconds_since(recovery_start);
  const bool parity = mem.checksum == durable.checksum &&
                      durable.checksum == recovered_checksum;
  std::printf("recovery  : %.3fs, checksum %016llx (parity: %s)\n",
              recovery_seconds,
              static_cast<unsigned long long>(recovered_checksum),
              parity ? "ok" : "MISMATCH");
  std::filesystem::remove_all(state_dir);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"service_throughput\",\n"
               "  \"smoke\": %s,\n"
               "  \"submissions\": %zu,\n"
               "  \"users\": %zu,\n"
               "  \"inmemory_submissions_per_sec\": %.1f,\n"
               "  \"durable_submissions_per_sec\": %.1f,\n"
               "  \"recovery_seconds\": %.6f,\n"
               "  \"component_checksum\": \"%016llx\",\n"
               "  \"recovery_parity\": %s,\n"
               "  \"metrics\": %s\n"
               "}\n",
               smoke ? "true" : "false", submissions, users,
               static_cast<double>(submissions) / mem.seconds,
               static_cast<double>(submissions) / durable.seconds,
               recovery_seconds,
               static_cast<unsigned long long>(recovered_checksum),
               parity ? "true" : "false",
               obs::MetricsRegistry::global().render_json().c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return parity ? 0 : 1;
}
