// Reproduces the paper's Sec. 4: User-Agent span analysis (W3C claim check).
#include "bench_common.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  return wafp::bench::run_report(
      "Sec. 4: User-Agent span analysis (W3C claim check)",
      &wafp::study::report_ua_span);
}
