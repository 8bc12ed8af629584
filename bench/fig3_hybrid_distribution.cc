// Reproduces the paper's Fig. 3: distribution of distinct Hybrid fingerprints.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Fig. 3: distribution of distinct Hybrid fingerprints",
      &wafp::study::report_fig3);
}
