// Ablation: turn the fickleness model off (every simulated browser
// perfectly stable) and watch which of the paper's phenomena disappear.
// Confirms the reproduction's causal wiring: Table 1's distinct counts and
// Fig. 3's tail come from the jitter model alone, while the diversity
// results (Table 2) survive without it.
#include <cstdio>

#include "bench_common.h"
#include "study/experiments.h"
#include "study/report.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;
  using fingerprint::VectorId;

  study::StudyConfig stable_cfg;
  stable_cfg.num_users = 800;
  stable_cfg.seed = 4242;
  stable_cfg.tuning.stable_user_share = 1.0;  // nobody flaky
  stable_cfg.tuning.low_flaky_share = 0.0;

  study::StudyConfig flaky_cfg = stable_cfg;
  flaky_cfg.tuning = platform::CatalogTuning{};  // defaults

  std::printf("=== Ablation: fickleness model on vs off (%zu users) ===\n\n",
              stable_cfg.num_users);
  std::printf("[collecting the two datasets...]\n\n");
  const study::Dataset stable = study::Dataset::collect(stable_cfg);
  const study::Dataset flaky = study::Dataset::collect(flaky_cfg);

  util::TextTable table({"Metric", "fickleness OFF", "fickleness ON (default)",
                         "paper"});
  const auto stability_stable = study::table1_stability(stable);
  const auto stability_flaky = study::table1_stability(flaky);
  table.add_row({"Hybrid max distinct / user",
                 util::TextTable::fmt(stability_stable[2].max),
                 util::TextTable::fmt(stability_flaky[2].max), "18"});
  table.add_row({"Hybrid mean distinct / user",
                 util::TextTable::fmt(stability_stable[2].mean, 2),
                 util::TextTable::fmt(stability_flaky[2].mean, 2), "2.08"});
  table.add_row({"AM mean distinct / user",
                 util::TextTable::fmt(stability_stable[5].mean, 2),
                 util::TextTable::fmt(stability_flaky[5].mean, 2), "4.28"});

  const auto agreement_stable =
      study::cluster_agreement(stable, VectorId::kHybrid, 3);
  const auto agreement_flaky =
      study::cluster_agreement(flaky, VectorId::kHybrid, 3);
  table.add_row({"Hybrid AMI (s=3)",
                 util::TextTable::fmt(agreement_stable.mean_ami, 4),
                 util::TextTable::fmt(agreement_flaky.mean_ami, 4),
                 "~0.99"});

  const auto diversity_stable =
      study::vector_diversity(stable, VectorId::kHybrid);
  const auto diversity_flaky =
      study::vector_diversity(flaky, VectorId::kHybrid);
  table.add_row({"Hybrid e_norm",
                 util::TextTable::fmt(diversity_stable.normalized),
                 util::TextTable::fmt(diversity_flaky.normalized), "0.244"});

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading: without fickleness every per-user count collapses to 1 "
      "and subset\nclusterings agree perfectly — yet the diversity stays "
      "put. The jitter model\nis exactly (and only) what produces the "
      "paper's Table 1 / Fig. 3 / Fig. 5\nphenomenology; the graph collation "
      "then recovers the stable diversity from it.\n");
  return 0;
}
