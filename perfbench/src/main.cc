// perfbench: the repository's benchmark of the study pipeline and the
// service path. One process runs one seeded workload and prints its
// report, a stamp line, and a result JSON line last.
//
//   perfbench --workload study|ingest|verify|serve --seed N
//             [--trace 0|1] [--scratch DIR]
//             [--reference-dir DIR] [--record-reference FILE]
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload study|ingest|verify|serve --seed N\n"
    "                 [--trace 0|1] [--scratch DIR]\n"
    "                 [--reference-dir DIR] [--record-reference FILE]\n"
    "\n"
    "  --workload          which workload to run (required)\n"
    "  --seed              input seed, decimal (required)\n"
    "  --trace             1 = traced run reporting per-layer metrics\n"
    "  --scratch           directory for state, CSVs and traces\n"
    "                      (default .bench_build/scratch)\n"
    "  --reference-dir     recorded study references (default\n"
    "                      perfbench/reference)\n"
    "  --record-reference  study only: write the values of pass 0's\n"
    "                      population (seed mod 8) to FILE\n";

int usage_error(const char* what) {
  std::fprintf(stderr, "perfbench: %s\n%s", what, kUsage);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0' || *text == '-' || *text == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.scratch = ".bench_build/scratch";
  options.reference_dir = "perfbench/reference";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (i + 1 >= argc) return usage_error(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) return usage_error("bad --seed");
      options.seed = number;
      have_seed = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage_error("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--reference-dir") {
      options.reference_dir = value;
    } else if (flag == "--record-reference") {
      options.record_reference = value;
    } else {
      return usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return usage_error("--workload is required");
  if (!have_seed) return usage_error("--seed is required");

  perfbench::Result (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "study") run = perfbench::run_study;
  if (options.workload == "ingest") run = perfbench::run_ingest;
  if (options.workload == "verify") run = perfbench::run_verify;
  if (options.workload == "serve") run = perfbench::run_serve;
  if (run == nullptr) return usage_error("unknown workload");

  const unsigned cpus = perfbench::available_cpus();
  // Half the CPUs: the rest absorb the host's and the caller's own
  // activity, which a pool as wide as the machine would wait for.
  options.threads = cpus < 2 ? 1 : cpus / 2;
  std::error_code ec;
  std::filesystem::create_directories(options.scratch, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.scratch.c_str());
    return 1;
  }
  const perfbench::Result result = run(options);
  result.print();
  return result.correct() ? 0 : 1;
}
