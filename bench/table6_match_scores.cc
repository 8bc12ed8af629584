// Reproduces the paper's Table 6: fingerprint match scores.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Table 6: fingerprint match scores",
      &wafp::study::report_table6);
}
