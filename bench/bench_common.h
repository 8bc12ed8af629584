// Shared scaffolding for the reproduction benches: every binary regenerates
// one of the paper's tables or figures against the standard 2093-user
// dataset (cached as CSV next to the working directory so the whole bench
// suite collects it only once).
#pragma once

#include <chrono>
#include <cstdio>
#include <string>

#include "study/report.h"

namespace wafp::bench {

/// These benches take no arguments: reject any (a typo'd flag or --help)
/// with a usage line instead of silently running the full bench. Returns 2
/// when argv holds arguments, 0 otherwise; call first in main().
inline int reject_arguments(int argc, char** argv) {
  if (argc <= 1) return 0;
  std::fprintf(stderr, "usage: %s  (takes no arguments)\n", argv[0]);
  return 2;
}

inline study::Dataset timed_main_dataset() {
  const auto start = std::chrono::steady_clock::now();
  study::Dataset ds = study::main_dataset();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  std::printf("[dataset: %zu users x %u iterations, ready in %lld ms]\n\n",
              ds.num_users(), ds.iterations(),
              static_cast<long long>(elapsed.count()));
  return ds;
}

inline study::Dataset timed_followup_dataset() {
  const auto start = std::chrono::steady_clock::now();
  study::Dataset ds = study::followup_dataset();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  std::printf("[follow-up dataset: %zu users, ready in %lld ms]\n\n",
              ds.num_users(),
              static_cast<long long>(elapsed.count()));
  return ds;
}

inline int run_report(const char* title,
                      std::string (*report)(const study::Dataset&),
                      bool followup = false) {
  std::printf("=== %s ===\n", title);
  const study::Dataset ds =
      followup ? timed_followup_dataset() : timed_main_dataset();
  const auto start = std::chrono::steady_clock::now();
  const std::string out = report(ds);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  std::fputs(out.c_str(), stdout);
  std::printf("\n[analysis time: %lld ms]\n",
              static_cast<long long>(elapsed.count()));
  return 0;
}

}  // namespace wafp::bench
