#include "obs/metrics.h"

// wafp-lint: allow-file(metric-name): the wafp_a/.../wafp_z families here
// are synthetic names exercising the registry API itself, not real series.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"

namespace wafp::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ShardedIncrementsUnderEightThreadContention) {
  Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(7);
  g.add(-9);
  EXPECT_EQ(g.value(), -2);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  const std::array<std::uint64_t, 2> bounds = {100, 200};
  Histogram h(bounds);
  h.observe(100);  // on the boundary -> first bucket (le="100")
  h.observe(101);  // just above -> second bucket
  h.observe(250);  // above all bounds -> overflow
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 451u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  const std::array<std::uint64_t, 1> bounds = {100};
  Histogram h(bounds);
  for (int i = 0; i < 10; ++i) h.observe(1);  // all in the first bucket
  const auto snap = h.snapshot();
  // Linear interpolation across [0, 100] would say 50 and 99, and 0 at
  // q = 0; no quantile may leave the range of values actually observed.
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1u);
  EXPECT_DOUBLE_EQ(snap.p50(), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
}

TEST(HistogramTest, CountHistogramQuantilesStayAtOrAboveMin) {
  // Batch sizes (wafp_serve_batch_size) are counts >= 1 on count buckets
  // {1, 2, 4, ...}: the first bucket spans [0, 1], and interpolating in it
  // used to report p50 = 0.5, a batch size that cannot happen.
  const std::array<std::uint64_t, 4> bounds = {1, 2, 4, 8};
  Histogram h(bounds);
  for (int i = 0; i < 6; ++i) h.observe(1);
  h.observe(3);
  h.observe(7);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.min, 1u);
  EXPECT_GE(snap.p50(), 1.0);
  EXPECT_GE(snap.quantile(0.0), 1.0);
  EXPECT_LE(snap.quantile(1.0), 7.0);
}

TEST(HistogramTest, QuantileWalksCumulativeBuckets) {
  const std::array<std::uint64_t, 3> bounds = {10, 20, 30};
  Histogram h(bounds);
  // 5 observations <= 10, 4 in (10, 20], 1 in (20, 30].
  for (int i = 0; i < 5; ++i) h.observe(5);
  for (int i = 0; i < 4; ++i) h.observe(15);
  h.observe(25);
  const auto snap = h.snapshot();
  // p50: target 5 of 10 -> exactly exhausts the first bucket.
  EXPECT_DOUBLE_EQ(snap.p50(), 10.0);
  // p95: target 9.5; cumulative through the second bucket is 9, so the
  // remaining 0.5 falls halfway into the single-count [20, 30] bucket.
  EXPECT_NEAR(snap.quantile(0.95), 25.0, 1e-9);
}

TEST(HistogramTest, OverflowInterpolatesUpToObservedMax) {
  const std::array<std::uint64_t, 2> bounds = {10, 20};
  Histogram h(bounds);
  h.observe(1000);
  h.observe(2000);
  const auto snap = h.snapshot();
  // Both land above the last bound: the overflow is counted, and the
  // bucket spans (20, 2000] instead of saturating at 20.
  EXPECT_EQ(snap.overflow, 2u);
  EXPECT_EQ(snap.max, 2000u);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 2000.0);
  EXPECT_DOUBLE_EQ(snap.p50(), 20.0 + 0.5 * (2000.0 - 20.0));
}

TEST(HistogramTest, WideBucketQuantileStaysAtOrBelowMax) {
  // A single 1.5 s observation lands in the default ladder's 1 s -> 5 s
  // bucket; interpolating across the bucket used to report p50 = 3e9.
  Histogram h(MetricsRegistry::default_latency_bounds_ns());
  h.observe(1'500'000'000ULL);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.overflow, 0u);
  EXPECT_LE(snap.p50(), 1.5e9);
  EXPECT_LE(snap.p99(), 1.5e9);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1.5e9);
}

TEST(HistogramTest, MaxIsTrackedAcrossShards) {
  const std::array<std::uint64_t, 1> bounds = {10};
  Histogram h(bounds);
  std::vector<std::thread> workers;
  for (std::uint64_t t = 1; t <= 8; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 1; i <= 1000; ++i) h.observe(t * i);
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.max, 8000u);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 8000.0);
}

TEST(HistogramTest, MinIsTrackedAcrossShards) {
  const std::array<std::uint64_t, 1> bounds = {10};
  Histogram h(bounds);
  std::vector<std::thread> workers;
  for (std::uint64_t t = 1; t <= 8; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 1; i <= 1000; ++i) h.observe(t * 1000 + i);
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.min, 1001u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1001.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroQuantiles) {
  const std::array<std::uint64_t, 1> bounds = {10};
  Histogram h(bounds);
  EXPECT_EQ(h.snapshot().min, 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().p99(), 0.0);
}

TEST(LabelTest, EscapesQuotesBackslashesAndNewlines) {
  EXPECT_EQ(label("vector", "dc"), "vector=\"dc\"");
  EXPECT_EQ(label("k", "a\"b\\c"), "k=\"a\\\"b\\\\c\"");
  // A raw '\n' in a label value would terminate the exposition line early
  // and corrupt every sample after it; it must render as the two
  // characters '\' 'n'.
  EXPECT_EQ(label("k", "a\nb"), "k=\"a\\nb\"");
  EXPECT_EQ(label("k", "\n"), "k=\"\\n\"");
  // Compositions: an escaped quote right before a newline stays unambiguous.
  EXPECT_EQ(label("ua", "Mozilla \"5.0\"\n\\x"),
            "ua=\"Mozilla \\\"5.0\\\"\\n\\\\x\"");
}

TEST(RegistryTest, SameFamilyAndLabelsReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("wafp_x_total", "help");
  Counter& b = reg.counter("wafp_x_total");
  EXPECT_EQ(&a, &b);
  Counter& labeled = reg.counter("wafp_x_total", "", label("vector", "dc"));
  EXPECT_NE(&a, &labeled);
}

TEST(RegistryTest, HistogramDefaultsToLatencyBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("wafp_y_ns");
  EXPECT_EQ(h.bounds().size(),
            MetricsRegistry::default_latency_bounds_ns().size());
  EXPECT_EQ(h.bounds().front(), 1'000u);
  EXPECT_EQ(h.bounds().back(), 5'000'000'000u);
}

TEST(RegistryTest, ManualClockDrivesNowNs) {
  MetricsRegistry reg;
  ManualClock clock(100);
  reg.set_clock(clock.fn());
  EXPECT_EQ(reg.now_ns(), 100u);
  clock.advance(50);
  EXPECT_EQ(reg.now_ns(), 150u);
  reg.set_clock(nullptr);  // back to the steady clock
  const std::uint64_t a = reg.now_ns();
  const std::uint64_t b = reg.now_ns();
  EXPECT_LE(a, b);
}

// The text-export golden: a small registry with known values must render
// exactly this Prometheus exposition (sorted families, cumulative
// histogram buckets, +Inf, _sum/_count).
constexpr std::string_view kGoldenText =
    "# HELP wafp_a_total Things counted\n"
    "# TYPE wafp_a_total counter\n"
    "wafp_a_total 3\n"
    "wafp_a_total{vector=\"dc\"} 1\n"
    "# HELP wafp_b_depth Queue depth\n"
    "# TYPE wafp_b_depth gauge\n"
    "wafp_b_depth -2\n"
    "# HELP wafp_c_ns Latency\n"
    "# TYPE wafp_c_ns histogram\n"
    "wafp_c_ns_bucket{le=\"100\"} 1\n"
    "wafp_c_ns_bucket{le=\"200\"} 2\n"
    "wafp_c_ns_bucket{le=\"+Inf\"} 3\n"
    "wafp_c_ns_sum 450\n"
    "wafp_c_ns_count 3\n"
    "# HELP wafp_d_total Hostile labels\n"
    "# TYPE wafp_d_total counter\n"
    "wafp_d_total{ua=\"Mozilla \\\"5.0\\\"\\nlike \\\\Gecko\"} 1\n"
    "# HELP wafp_e_ns Never observed\n"
    "# TYPE wafp_e_ns histogram\n"
    "wafp_e_ns_bucket{le=\"100\"} 0\n"
    "wafp_e_ns_bucket{le=\"+Inf\"} 0\n"
    "wafp_e_ns_sum 0\n"
    "wafp_e_ns_count 0\n";

TEST(RegistryTest, TextExportMatchesGolden) {
  MetricsRegistry reg;
  reg.counter("wafp_a_total", "Things counted").inc(3);
  reg.counter("wafp_a_total", "", label("vector", "dc")).inc();
  reg.gauge("wafp_b_depth", "Queue depth").set(-2);
  const std::array<std::uint64_t, 2> bounds = {100, 200};
  Histogram& h = reg.histogram("wafp_c_ns", "Latency", "", bounds);
  h.observe(50);
  h.observe(150);
  h.observe(250);
  // A label value with an embedded quote, newline, and backslash must come
  // out as one well-formed exposition line.
  reg.counter("wafp_d_total", "Hostile labels",
              label("ua", "Mozilla \"5.0\"\nlike \\Gecko"))
      .inc();
  // A registered-but-never-observed histogram still renders a complete
  // (all-zero) bucket series.
  const std::array<std::uint64_t, 1> bounds_e = {100};
  reg.histogram("wafp_e_ns", "Never observed", "", bounds_e);
  EXPECT_EQ(reg.render_text(), kGoldenText);
}

TEST(RegistryTest, JsonExportFlattensUnlabeledScalars) {
  MetricsRegistry reg;
  reg.counter("wafp_a_total", "Things counted").inc(3);
  const std::array<std::uint64_t, 1> bounds = {100};
  reg.histogram("wafp_c_ns", "Latency", "", bounds).observe(50);
  const std::string json = reg.render_json();
  EXPECT_NE(json.find("\"wafp_a_total\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wafp_c_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": 50"), std::string::npos) << json;
  EXPECT_NE(json.find("\"overflow\": 0}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"min\": 50, \"count\": 1"), std::string::npos)
      << json;
}

TEST(RegistryTest, JsonExportHandlesZeroObservationHistograms) {
  MetricsRegistry reg;
  const std::array<std::uint64_t, 2> bounds = {100, 200};
  reg.histogram("wafp_empty_ns", "Registered, never observed", "", bounds);
  reg.histogram("wafp_empty_ns", "", label("vector", "dc"), bounds);
  const std::string json = reg.render_json();
  // Both instruments render full snapshots with zero counts and zero
  // quantiles — not NaN, not a division blowup, not an omitted family.
  EXPECT_NE(json.find("\"wafp_empty_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"vector=\\\"dc\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 0, \"sum\": 0, \"p50\": 0, \"p95\": 0, "
                      "\"p99\": 0, \"overflow\": 0"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(RegistryTest, HistogramObserveIsSafeUnderContention) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("wafp_z_ns");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.observe(1'000 * (t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.snapshot().count, kThreads * kPerThread);
}

}  // namespace
}  // namespace wafp::obs
