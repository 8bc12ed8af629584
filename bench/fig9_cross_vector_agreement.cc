// Reproduces the paper's Fig. 9: cross-vector cluster agreement.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Fig. 9: cross-vector cluster agreement",
      &wafp::study::report_fig9);
}
