// Lock-cheap metrics registry: the observability spine of the pipeline.
//
// The paper's headline numbers hinge on *where* time and fickleness enter
// the render/collate pipeline (render load is the authors' own causal
// hypothesis for FFT wavering, §3.1), and the ROADMAP's production target
// needs per-stage cost visibility. This registry gives every layer —
// webaudio renderer, render cache/collector, collation service — a shared
// vocabulary of monotonic counters, gauges, and fixed-bucket latency
// histograms, exported as a Prometheus-style text dump (render_text) and a
// JSON block the bench binaries embed into their BENCH_*.json.
//
// Concurrency model (the PR 3 thread-safety gate still holds):
//   * The registration maps are the only mutex-guarded state
//     (WAFP_GUARDED_BY(mu_)); they are touched once per call site, which
//     caches the returned reference.
//   * The hot paths — Counter::inc, Gauge::set/add, Histogram::observe —
//     are wait-free: relaxed atomics on cache-line-padded shards selected
//     by a per-thread index, so 8 collection workers never contend.
//   * Returned references stay valid for the registry's lifetime
//     (instruments are heap-allocated and never erased), mirroring
//     RenderCache's entry-stability contract.
//
// Determinism: metrics only *observe* the pipeline (timings, tallies);
// nothing reads them back into a digest, so an instrumented 8-thread
// Dataset::collect stays bit-identical to serial. The clock is injectable
// (set_clock, mirroring ServiceConfig::sleeper) so tests assert exact
// durations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wafp::obs {

namespace detail {
/// Stable per-thread shard selector (hashed thread id, cached per thread).
[[nodiscard]] std::size_t thread_shard_seed();
}  // namespace detail

/// Monotonic counter, sharded to keep concurrent increments off each
/// other's cache lines. value() sums the shards (racy reads see a
/// consistent-enough snapshot: every inc lands in exactly one shard).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;  // power of two

  void inc(std::uint64_t n = 1) {
    shards_[detail::thread_shard_seed() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Point-in-time signed value (queue depth, live entry count).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram for latency-style values (nanoseconds by
/// convention). Bucket upper bounds are fixed at registration; observe()
/// is wait-free (sharded relaxed atomics, plus a compare-exchange only when
/// a shard sees a new minimum or maximum). Quantiles are estimated by
/// linear interpolation inside the target bucket and clamped to the
/// observed [minimum, maximum] — exact enough for p50/p95/p99 trend lines,
/// and deterministic given the same observations.
class Histogram {
 public:
  static constexpr std::size_t kShards = 8;  // power of two

  /// `bounds` must be strictly increasing upper bucket bounds; values above
  /// the last bound land in an implicit overflow bucket.
  explicit Histogram(std::span<const std::uint64_t> bounds);

  void observe(std::uint64_t value) {
    Shard& s = shards_[detail::thread_shard_seed() & (kShards - 1)];
    s.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = s.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !s.max.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
    seen = s.min.load(std::memory_order_relaxed);
    while (value < seen &&
           !s.min.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::span<const std::uint64_t> bounds() const {
    return bounds_;
  }

  struct Snapshot {
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;       // smallest observed value (0 when empty)
    std::uint64_t max = 0;       // largest observed value
    std::uint64_t overflow = 0;  // observations above the last bound

    /// Interpolated quantile, q in [0, 1], clamped to [`min`, `max`]. The
    /// overflow bucket interpolates from the last finite bound up to `max`;
    /// an empty histogram reports 0.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double p50() const { return quantile(0.50); }
    [[nodiscard]] double p95() const { return quantile(0.95); }
    [[nodiscard]] double p99() const { return quantile(0.99); }
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const;

  std::vector<std::uint64_t> bounds_;
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;  // bounds_.size() + 1
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> max{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};  // UINT64_MAX until observed
  };
  std::array<Shard, kShards> shards_;
};

/// Renders `key="value"` for use as a metric label (quotes, backslashes,
/// and newlines in `value` are escaped per the Prometheus exposition
/// format). Concatenate multiple labels with ','.
[[nodiscard]] std::string label(std::string_view key, std::string_view value);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-register. The same (family, labels) pair always returns the
  /// same instrument; `help` is recorded on first registration. Registering
  /// an existing family under a different kind is a contract violation
  /// (WAFP_CHECK). Call sites should cache the returned reference — lookup
  /// takes the registry mutex, the instrument itself is wait-free.
  Counter& counter(std::string_view family, std::string_view help = {},
                   std::string_view labels = {});
  Gauge& gauge(std::string_view family, std::string_view help = {},
               std::string_view labels = {});
  /// Empty `bounds` selects default_latency_bounds_ns(). Bounds are fixed by
  /// the family's first registration.
  Histogram& histogram(std::string_view family, std::string_view help = {},
                       std::string_view labels = {},
                       std::span<const std::uint64_t> bounds = {});

  /// 1 µs .. 5 s in a 1-2-5 progression — wide enough for node-process
  /// times at the bottom and full study collections at the top.
  [[nodiscard]] static std::span<const std::uint64_t>
  default_latency_bounds_ns();

  /// Replace the time source (tests; pass nullptr to restore the steady
  /// clock). Safe to call while other threads read now_ns(): previous
  /// clocks are retired, not freed, until the registry is destroyed.
  void set_clock(ClockFn fn);
  [[nodiscard]] std::uint64_t now_ns() const {
    const ClockFn* fn = clock_.load(std::memory_order_acquire);
    return fn ? (*fn)() : steady_now_ns();
  }

  /// Prometheus text exposition: deterministic family order (sorted), with
  /// # HELP / # TYPE headers and _bucket/_sum/_count rows for histograms.
  [[nodiscard]] std::string render_text() const;

  /// One JSON object for embedding into BENCH_*.json: unlabeled counters
  /// and gauges flatten to numbers, labeled ones to {label: value} objects,
  /// histograms to {label: {min, count, sum, p50, p95, p99, overflow}}
  /// objects.
  [[nodiscard]] std::string render_json() const;

  /// The process-wide default registry (what WAFP_SPAN and un-injected
  /// subsystems record into).
  [[nodiscard]] static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    Kind kind = Kind::kCounter;
    // Keyed by the rendered label string ("" for unlabeled); std::map keeps
    // the export deterministic.
    std::map<std::string, std::unique_ptr<Instrument>> instruments;
  };

  Instrument& instrument(std::string_view family, std::string_view help,
                         std::string_view labels, Kind kind,
                         std::span<const std::uint64_t> bounds);

  mutable util::Mutex mu_;
  std::map<std::string, Family, std::less<>> families_ WAFP_GUARDED_BY(mu_);
  /// Lock-free clock slot; retired clocks stay alive so a concurrent
  /// now_ns() can never touch a freed function object.
  std::atomic<const ClockFn*> clock_{nullptr};
  std::vector<std::unique_ptr<ClockFn>> retired_clocks_ WAFP_GUARDED_BY(mu_);
};

}  // namespace wafp::obs
