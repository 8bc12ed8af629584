#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "dsp/simd.h"
#include "fingerprint/vector_registry.h"
#include "obs/metrics.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// A missed (refused) request has no finite latency; JSON has no infinity,
// so a tail made of misses prints as this sentinel and the report says so.
constexpr double kMissedPrintMs = 1e12;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

// Per-layer metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"analysis.fig5_s", "s"},
      {"analysis.emi_s", "s"},
      {"analysis.emi_calls", "count"},
      {"analysis.mi_s", "s"},
      {"analysis.contingency_s", "s"},
      {"analysis.table1_s", "s"},
      {"analysis.table2_s", "s"},
      {"analysis.fig9_s", "s"},
      {"analysis.table6_s", "s"},
      {"study.collect_s", "s"},
      {"webaudio.render_s", "s"},
      {"webaudio.render_s.dc", "s"},
      {"webaudio.render_s.fft", "s"},
      {"webaudio.render_s.hybrid", "s"},
      {"webaudio.render_s.custom", "s"},
      {"webaudio.render_s.merged", "s"},
      {"webaudio.render_s.am", "s"},
      {"webaudio.render_s.fm", "s"},
      {"fingerprint.renders", "count"},
      {"fingerprint.collect_calls", "count"},
      {"fingerprint.cache_hit_ratio", "ratio"},
      {"fingerprint.cache_lookups", "count"},
      {"study.csv_save_s", "s"},
      {"study.csv_load_s", "s"},
      {"collation.build_graph_s", "s"},
      {"service.snapshot_s", "s"},
      {"service.snapshots", "count"},
      {"service.snapshot_bytes", "bytes"},
      {"service.pump_s", "s"},
      {"service.applied", "count"},
      {"service.wal_appends", "count"},
      {"service.wal_retries", "count"},
      {"service.wal_bytes_per_sub", "bytes"},
      {"service.queue_depth_max", "count"},
      {"service.submit_s", "s"},
      {"service.submit_calls", "count"},
      {"service.rejects.malformed_hash", "count"},
      {"service.rejects.unknown_vector", "count"},
      {"service.rejects.timestamp_regression", "count"},
      {"service.rejects.queue_full", "count"},
      {"service.recovery_records", "count"},
      {"collation.clusters", "count"},
      {"collation.users", "count"},
      {"collation.fingerprints", "count"},
      {"collation.match_s", "s"},
      {"collation.match_calls", "count"},
      {"collation.user_component_s", "s"},
      {"scenario.epoch_s", "s"},
      {"scenario.drift_events", "count"},
      {"analysis.score_s", "s"},
      {"serve.submit_s", "s"},
      {"serve.wait_s", "s"},
      {"serve.coalesce_ratio", "ratio"},
      {"serve.batches", "count"},
      {"serve.classes_per_batch", "count"},
      {"serve.rejected_queue_full", "count"},
      {"serve.queue_depth_max", "count"},
      {"ingest.gen_late_p99_ms", "ms"},
      {"serve.gen_late_p99_ms", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return names;
}

// Lower-case metric suffixes for the audio vectors, registry order.
constexpr const char* kVectorKeys[7] = {"dc",     "fft", "hybrid", "custom",
                                        "merged", "am",  "fm"};

}  // namespace

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void Result::stamp(const std::string& key, double value) {
  stamp_.emplace_back(key, format("%.17g", value));
}

void Result::gate(bool ok, const std::string& what, std::uint64_t ops) {
  lines_.push_back(format("gate %-4s %s", ok ? "ok" : "FAIL", what.c_str()));
  if (ok) return;
  correct_ = false;
  failed_ += ops;
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
}

double Result::ok_ratio() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - std::min(failed_, attempted_)) /
         static_cast<double>(attempted_);
}

void Result::print() const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  std::printf("{\"stamp\": {");
  for (std::size_t i = 0; i < stamp_.size(); ++i) {
    std::printf("%s\"%s\": %s", i ? ", " : "", stamp_[i].first.c_str(),
                stamp_[i].second.c_str());
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double value = std::isfinite(vu.first) ? vu.first : kMissedPrintMs;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", name.c_str(), value, vu.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_end_to_end(const EndToEnd& e2e, Result& result) {
  std::vector<double> medians;
  std::vector<double> tails;
  bool same_level = !e2e.latency_ms.empty();
  for (const Summary& s : e2e.latency_ms) {
    medians.push_back(s.median);
    tails.push_back(s.tail);
    same_level = same_level && s.has_tail() &&
                 s.tail_pct == e2e.latency_ms.front().tail_pct;
    result.line(format("latency: p50 %.6g ms, %s = %.6g ms (%zu beyond), "
                       "max %.6g ms, %zu missed",
                       s.median, s.tail_label().c_str(), s.tail, s.beyond,
                       s.max, s.missed));
  }
  const Summary first = e2e.latency_ms.empty() ? Summary{}
                                               : e2e.latency_ms.front();
  const double p50 = median_of(medians);
  const double tail = median_of(tails);
  result.gate(same_level,
              "every repetition has the same tail percentile with ten "
              "samples beyond it");
  result.metric("setup_s", e2e.setup_s, "s");
  result.metric("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result.metric("ok_ratio", result.ok_ratio(), "ratio");
  result.metric("work_s", e2e.work_s, "s");
  result.metric("throughput_per_s", e2e.throughput_per_s, "1/s");
  result.metric("p50_ms", p50, "ms");
  result.metric("tail_ms", tail, "ms");
  result.stamp("latency_repetitions",
               static_cast<double>(e2e.latency_ms.size()));
  result.stamp("latency_samples_per_repetition",
               static_cast<double>(first.count));
  result.stamp("tail_percentile", first.tail_pct);
  result.line(format("p50_ms = %.6g ms, tail_ms = %.6g ms: medians over %zu "
                     "repetitions of p50 and %s",
                     p50, tail, e2e.latency_ms.size(),
                     first.tail_label().c_str()));
  if (!std::isfinite(tail)) {
    result.line(format("tail made of missed requests: printed as %g ms",
                       kMissedPrintMs));
  }
}

Layers::Layers() : names_(layer_names()) {
  for (const auto& [name, unit] : names_) values_[name] = 0.0;
}

void Layers::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  it->second = value;
}

void Layers::report(Result& result) const {
  for (const auto& [name, unit] : names_) {
    result.metric(name, values_.at(name), unit);
  }
}

ProgramCounters ProgramCounters::read() {
  wafp::obs::MetricsRegistry& reg = wafp::obs::MetricsRegistry::global();
  ProgramCounters c;
  c.cache_hits = reg.counter("wafp_cache_hits_total").value();
  c.cache_misses = reg.counter("wafp_cache_misses_total").value();
  c.collect_calls = reg.histogram("wafp_collect_ns").snapshot().count;
  const auto audio = wafp::fingerprint::VectorRegistry::instance().audio_ids();
  for (std::size_t v = 0; v < audio.size() && v < 7; ++v) {
    const std::string name(wafp::fingerprint::to_string(audio[v]));
    c.render_s[v] =
        static_cast<double>(reg.histogram("wafp_render_vector_ns", {},
                                          wafp::obs::label("vector", name))
                                .snapshot()
                                .sum) *
        1e-9;
  }
  c.snapshot_s =
      static_cast<double>(
          reg.histogram("wafp_service_snapshot_ns").snapshot().sum) *
      1e-9;
  return c;
}

ProgramCounters ProgramCounters::since(const ProgramCounters& base) const {
  ProgramCounters d;
  d.cache_hits = cache_hits - base.cache_hits;
  d.cache_misses = cache_misses - base.cache_misses;
  d.collect_calls = collect_calls - base.collect_calls;
  for (int v = 0; v < 7; ++v) d.render_s[v] = render_s[v] - base.render_s[v];
  d.snapshot_s = snapshot_s - base.snapshot_s;
  return d;
}

double ProgramCounters::render_total_s() const {
  double total = 0.0;
  for (const double s : render_s) total += s;
  return total;
}

void report_spans(const std::map<std::string, trace::Totals>& totals,
                  Result& result) {
  std::vector<std::pair<std::string, trace::Totals>> rows(totals.begin(),
                                                          totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_s > b.second.total_s;
  });
  for (const auto& [name, t] : rows) {
    result.line(format("span %-28s n=%-9llu total %10.6f s  self %10.6f s",
                       name.c_str(), static_cast<unsigned long long>(t.count),
                       t.total_s, t.self_s));
  }
}

void report_render_layers(const ProgramCounters& delta, Layers& layers) {
  layers.set("webaudio.render_s", delta.render_total_s());
  for (int v = 0; v < 7; ++v) {
    layers.set(std::string("webaudio.render_s.") + kVectorKeys[v],
               delta.render_s[v]);
  }
  const std::uint64_t lookups = delta.cache_hits + delta.cache_misses;
  layers.set("fingerprint.renders", static_cast<double>(delta.cache_misses));
  layers.set("fingerprint.cache_lookups", static_cast<double>(lookups));
  layers.set("fingerprint.cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(delta.cache_hits) /
                                static_cast<double>(lookups));
  layers.set("fingerprint.collect_calls",
             static_cast<double>(delta.collect_calls));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void stamp_host(const Options& options, Result& result) {
  result.stamp("workload", options.workload);
  result.stamp("seed", static_cast<double>(options.seed));
  result.stamp("trace", options.trace ? 1.0 : 0.0);
  result.stamp("nproc", static_cast<double>(available_cpus()));
  result.stamp("hardware_concurrency",
               static_cast<double>(std::thread::hardware_concurrency()));
  result.stamp("threads", static_cast<double>(options.threads));
  result.stamp("simd_backend",
               std::string(wafp::dsp::to_string(wafp::dsp::active_simd_backend())));
  result.stamp("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
