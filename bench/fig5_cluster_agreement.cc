// Reproduces the paper's Fig. 5: cluster-agreement AMI vs subset size.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Fig. 5: cluster-agreement AMI vs subset size",
      &wafp::study::report_fig5);
}
