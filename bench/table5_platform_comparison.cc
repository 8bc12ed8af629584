// Reproduces the paper's Table 5: per-platform DC vs Math JS (follow-up).
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Table 5: per-platform DC vs Math JS (follow-up)",
      &wafp::study::report_table5, true);
}
