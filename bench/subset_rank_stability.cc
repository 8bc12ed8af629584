// Reproduces the paper's Sec. 5: e_norm ranking stability across user subsets.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Sec. 5: e_norm ranking stability across user subsets",
      &wafp::study::report_subset_rankings);
}
