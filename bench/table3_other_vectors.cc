// Reproduces the paper's Table 3: diversity of Canvas/Fonts/User-Agent.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Table 3: diversity of Canvas/Fonts/User-Agent",
      &wafp::study::report_table3);
}
