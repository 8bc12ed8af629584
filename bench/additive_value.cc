// Reproduces the paper's Sec. 4: additive value of audio fingerprinting.
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Sec. 4: additive value of audio fingerprinting",
      &wafp::study::report_additive_value);
}
