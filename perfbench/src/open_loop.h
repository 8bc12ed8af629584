// Open-loop load generator: request i is due at t0 + i / rate whatever the
// system is doing, and its latency runs from that due time, so a stall
// charges every request that should have been sent during it. How late the
// generator itself issued each request is recorded too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "timing.h"

namespace perfbench {

/// Per-request timestamps of one open-loop phase (ns, steady clock).
struct OpenLoopTimes {
  /// done[i] values that are not completion times.
  static constexpr std::int64_t kPending = 0;
  static constexpr std::int64_t kRefused =
      std::numeric_limits<std::int64_t>::max();
  /// Answered synchronously by design (rejected as invalid input): not a
  /// latency sample.
  static constexpr std::int64_t kUntimed = -1;

  explicit OpenLoopTimes(std::size_t n) : due(n), sent(n), done(n) {}

  std::vector<std::int64_t> due;
  std::vector<std::int64_t> sent;
  std::vector<std::int64_t> done;
};

/// Issue n = times.due.size() requests at `rate_per_s`, calling issue(i) at
/// or after each due time from the calling thread. The caller (or a thread
/// it runs) fills times.done.
template <class Issue>
void run_open_loop(double rate_per_s, OpenLoopTimes& times, Issue&& issue) {
  const double period_ns = 1e9 / rate_per_s;
  const std::int64_t t0 = now_ns() + 1'000'000;  // 1 ms lead-in
  for (std::size_t i = 0; i < times.due.size(); ++i) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    times.due[i] = due;
    std::int64_t now = now_ns();
    // Sleep only through long gaps, waking a millisecond early, then yield
    // until the due time: a sleeping CPU of a virtual machine can wake
    // hundreds of microseconds late when the host is busy, and that delay
    // would count as the system's latency.
    if (due - now > 2'000'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - 1'000'000));
    }
    while ((now = now_ns()) < due) std::this_thread::yield();
    times.sent[i] = now;
    issue(i);
  }
}

struct OpenLoopSummary {
  Samples latency_ms;   // due -> done; refused requests count as kMissed
  Samples lateness_ms;  // due -> sent
  std::size_t refused = 0;
  std::size_t untimed = 0;
};

[[nodiscard]] inline OpenLoopSummary summarize(const OpenLoopTimes& times) {
  OpenLoopSummary s;
  s.latency_ms.reserve(times.due.size());
  s.lateness_ms.reserve(times.due.size());
  for (std::size_t i = 0; i < times.due.size(); ++i) {
    s.lateness_ms.add(static_cast<double>(times.sent[i] - times.due[i]) *
                      1e-6);
    const std::int64_t done = times.done[i];
    if (done == OpenLoopTimes::kUntimed) {
      ++s.untimed;
    } else if (done == OpenLoopTimes::kRefused ||
               done == OpenLoopTimes::kPending) {
      ++s.refused;
      s.latency_ms.add(kMissed);
    } else {
      s.latency_ms.add(static_cast<double>(done - times.due[i]) * 1e-6);
    }
  }
  return s;
}

}  // namespace perfbench
