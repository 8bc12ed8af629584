// Reproduces the paper's Table 2: diversity of audio fingerprints.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Table 2: diversity of audio fingerprints",
      &wafp::study::report_table2);
}
