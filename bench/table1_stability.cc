// Reproduces the paper's Table 1: per-user fingerprint stability.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Table 1: per-user fingerprint stability",
      &wafp::study::report_table1);
}
