// Shared plumbing of the four workloads: options, the result every
// workload fills, the metric names, and the readings the benchmark takes
// from the program (exact counters and histogram sums only).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "timing.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  /// Threads the program may use: half the CPUs this process may run on.
  unsigned threads = 1;
  /// Scratch directory inside the checkout (state dirs, CSVs, traces).
  std::string scratch;
  /// Directory of recorded study references (study_pop<P>.txt).
  std::string reference_dir;
  /// If set, `study` writes the values of its first pass's population here.
  std::string record_reference;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `stamp` describes
/// the host and the run; `lines` is the human-readable report.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  void line(const std::string& text) { lines_.push_back(text); }

  /// Record a correctness gate. A failed gate marks `ops` operations
  /// failed and the run incorrect (nonzero exit).
  void gate(bool ok, const std::string& what, std::uint64_t ops = 1);
  void attempt(std::uint64_t ops) { attempted_ += ops; }
  /// Operations that completed without a wrong result but still failed
  /// the user (refused requests).
  void fail(std::uint64_t ops) { failed_ += ops; }

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double ok_ratio() const;

  /// Human report, then a stamp JSON line, then the result JSON line last.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> lines_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The end-to-end metric names (BENCHMARK.json "end_to_end"), printed by
/// every workload in the untraced run.
struct EndToEnd {
  double setup_s = 0.0;
  /// Peak resident set, read when the workload's system has been at full
  /// size and before the benchmark pools its samples.
  double peak_rss_mb = 0.0;
  double work_s = 0.0;
  double throughput_per_s = 0.0;
  /// One latency summary per repetition (pass, phase or round), each over
  /// the same number of samples; p50_ms and tail_ms are their medians, so
  /// one disturbed repetition does not move the reported tail.
  std::vector<Summary> latency_ms;
};
void report_end_to_end(const EndToEnd& e2e, Result& result);

/// The per-layer metric names (BENCHMARK.json "per_layer"). A workload sets
/// the layers it exercises; the rest print as 0 (the layer did no work).
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  void report(Result& result) const;

 private:
  std::vector<std::pair<std::string, std::string>> names_;  // name, unit
  std::map<std::string, double> values_;
};

/// Program readings: exact counters and histogram sums from the global obs
/// registry, never its quantiles.
struct ProgramCounters {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t collect_calls = 0;
  double render_s[7] = {};  // per audio vector, registry order
  double snapshot_s = 0.0;

  [[nodiscard]] static ProgramCounters read();
  [[nodiscard]] ProgramCounters since(const ProgramCounters& base) const;
  [[nodiscard]] double render_total_s() const;
};

/// Add a "span" line per span name (count, total and self seconds) to the
/// human report: the traced run's cost tree.
void report_spans(const std::map<std::string, trace::Totals>& totals,
                  Result& result);

/// Record the render-layer readings shared by `study` and `serve`.
void report_render_layers(const ProgramCounters& delta, Layers& layers);

/// CPUs this process may run on (its affinity mask), 0 if unknown.
[[nodiscard]] unsigned available_cpus();

/// Peak resident set of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

/// Host and run stamp common to every workload.
void stamp_host(const Options& options, Result& result);

/// SplitMix64 finalizer: the benchmark's own input generator, independent
/// of the program's RNG so a program change cannot change the inputs.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Printf into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

Result run_study(const Options& options);
Result run_ingest(const Options& options);
Result run_verify(const Options& options);
Result run_serve(const Options& options);

}  // namespace perfbench
