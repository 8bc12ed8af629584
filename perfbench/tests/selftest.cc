// Tests of the benchmark's own timers, percentile code, span recorder and
// open-loop generator. Exits 0 when every check passes.
//
//   .bench_build/perfbench_selftest
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <random>
#include <string>
#include <thread>

#include "open_loop.h"
#include "timing.h"
#include "trace.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void spin_for_ns(std::int64_t ns) {
  const std::int64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

void test_percentiles() {
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  Summary sum = s.summarize();
  check(sum.median == 500 && sum.tail_pct == 99 && sum.tail == 990 &&
            sum.beyond == 10,
        "1..1000: median 500, p99 = 990 with 10 beyond");

  Samples hundred;
  for (int i = 1; i <= 100; ++i) hundred.add(i);
  sum = hundred.summarize();
  check(sum.tail_pct == 90 && sum.tail == 90 && sum.beyond == 10,
        "1..100: tail is p90 (p99 would leave only 1 beyond)");

  Samples nines;
  for (int i = 1; i <= 9999; ++i) nines.add(i);
  sum = nines.summarize();
  check(sum.tail_pct == 99 && sum.beyond == 99,
        "1..9999: tail is p99 (p99.9 would leave only 9 beyond)");

  Samples few;
  for (int i = 0; i < 19; ++i) few.add(i);
  check(!few.summarize().has_tail(), "19 samples: no percentile qualifies");

  // Randomized: the quantile is always an observed sample no larger than
  // the maximum and always has at least ten samples beyond it.
  std::mt19937_64 rng(7);
  bool bounded = true;
  for (int trial = 0; trial < 500; ++trial) {
    Samples r;
    const std::size_t n = 20 + rng() % 5000;
    for (std::size_t i = 0; i < n; ++i) {
      // Heavy-tailed, with ties.
      r.add(std::floor(std::exp(static_cast<double>(rng() % 2000) / 100.0)));
    }
    const Summary t = r.summarize();
    const auto& v = r.values();
    const auto above = static_cast<std::size_t>(std::count_if(
        v.begin(), v.end(), [&](double x) { return x > t.tail; }));
    bounded = bounded && t.has_tail() && t.tail <= t.max &&
              t.median <= t.tail && t.beyond >= Summary::kMinBeyond &&
              above <= t.beyond &&
              std::find(v.begin(), v.end(), t.tail) != v.end();
  }
  check(bounded, "random sets: tail <= max, observed, >= 10 beyond");

  Samples missed;
  for (int i = 0; i < 990; ++i) missed.add(1.0);
  for (int i = 0; i < 20; ++i) missed.add(kMissed);
  sum = missed.summarize();
  check(sum.missed == 20 && std::isinf(sum.tail) && sum.median == 1.0,
        "missed requests sort last and reach the tail");

  check(median_of({3, 1, 2}) == 2 && median_of({4, 1, 2, 3}) == 2.5,
        "median_of odd and even");
}

void test_stopwatch() {
  const Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = sw.seconds();
  check(s >= 0.020 && s < 1.0, "stopwatch measures a 20 ms sleep");
}

void test_trace() {
  trace::set_enabled(false);
  { const trace::Span off("off"); }
  trace::set_enabled(true);
  {
    const trace::Span outer("outer");
    spin_for_ns(10'000'000);
    {
      const trace::Span inner("inner");
      spin_for_ns(10'000'000);
    }
    const std::uint64_t parent = outer.id();
    std::thread worker([parent] {
      const trace::Span remote("remote", parent, 42);
      spin_for_ns(5'000'000);
    });
    worker.join();
  }
  trace::set_enabled(false);
  const auto records = trace::collect();
  const auto totals = trace::totals(records);
  check(totals.count("off") == 0, "disabled spans record nothing");
  const auto& outer = totals.at("outer");
  const auto& inner = totals.at("inner");
  const auto& remote = totals.at("remote");
  check(outer.count == 1 && inner.count == 1 && remote.count == 1,
        "one record per span");
  check(outer.total_s >= 0.025 && inner.total_s >= 0.010 &&
            remote.total_s >= 0.005,
        "span durations cover the work");
  const double covered = inner.total_s + remote.total_s;
  check(std::fabs(outer.self_s - (outer.total_s - covered)) < 1e-6,
        "self time = duration minus child intervals (cross-thread child)");
  bool remote_ok = false;
  for (const auto& r : records) {
    if (std::string(r.name) == "remote") remote_ok = r.request == 42;
  }
  check(remote_ok, "request id recorded");
}

// A stand-in system: one worker serves requests in arrival order, 20 us
// each, except that it stalls for 100 ms before request kStallAt.
constexpr std::size_t kRequests = 2000;
constexpr std::size_t kStallAt = 400;
constexpr double kRate = 2000.0;

void test_open_loop_async_stall() {
  OpenLoopTimes times(kRequests);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool finished = false;
  std::thread worker([&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return finished || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      if (i == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      spin_for_ns(20'000);
      times.done[i] = now_ns();
    }
  });
  run_open_loop(kRate, times, [&](std::size_t i) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      queue.push_back(i);
    }
    cv.notify_one();
  });
  {
    const std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  worker.join();
  const OpenLoopSummary s = summarize(times);
  const Summary lat = s.latency_ms.summarize();
  check(lat.count == kRequests && lat.tail_pct == 99,
        "async stand-in: every request timed, p99 reported");
  check(lat.tail >= 50.0, "async stand-in: the 100 ms stall shows in p99");
  check(lat.median < 50.0, "async stand-in: median stays below the stall");
  check(s.lateness_ms.summarize().tail < 50.0,
        "async stand-in: the generator itself stays on schedule");
}

void test_open_loop_blocking_stall() {
  // The stand-in answers inside issue(): a stall blocks the generator.
  // Timing from the due time still charges the stall to every request that
  // should have gone out during it; timing from the send would hide it.
  OpenLoopTimes times(kRequests);
  run_open_loop(kRate, times, [&](std::size_t i) {
    if (i == kStallAt) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    spin_for_ns(20'000);
    times.done[i] = now_ns();
  });
  const OpenLoopSummary s = summarize(times);
  Samples from_send;
  for (std::size_t i = 0; i < kRequests; ++i) {
    from_send.add(static_cast<double>(times.done[i] - times.sent[i]) * 1e-6);
  }
  check(s.latency_ms.summarize().tail >= 50.0,
        "blocking stand-in: p99 from due time shows the stall");
  check(s.lateness_ms.summarize().tail >= 50.0,
        "blocking stand-in: generator lateness is reported");
  check(from_send.summarize().tail < 50.0,
        "blocking stand-in: p99 from send time would hide it");
}

void test_open_loop_refusals() {
  OpenLoopTimes times(100);
  run_open_loop(1e5, times, [&](std::size_t i) {
    times.done[i] = i % 10 == 0 ? OpenLoopTimes::kRefused
                    : i % 10 == 1 ? OpenLoopTimes::kUntimed
                                  : now_ns();
  });
  const OpenLoopSummary s = summarize(times);
  check(s.refused == 10 && s.untimed == 10 && s.latency_ms.size() == 90 &&
            s.latency_ms.summarize().missed == 10,
        "refused requests count as missed, invalid ones are untimed");
}

}  // namespace

int main() {
  test_percentiles();
  test_stopwatch();
  test_trace();
  test_open_loop_async_stall();
  test_open_loop_blocking_stall();
  test_open_loop_refusals();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
