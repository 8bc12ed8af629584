// Reproduces the paper's Table 4: audio vs Math JS fingerprinting (follow-up).
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Table 4: audio vs Math JS fingerprinting (follow-up)",
      &wafp::study::report_table4, true);
}
