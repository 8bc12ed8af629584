// Privacy-facing reading of Tables 2-3: the anonymity-set sizes each
// fingerprinting vector leaves users with. Extends the paper's diversity
// analysis with the k-anonymity lens browser vendors use when weighing
// defenses (§4 "Mitigations").
#include "analysis/anonymity.h"
#include "bench_common.h"
#include "fingerprint/vector_registry.h"
#include "study/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;
  using fingerprint::VectorId;

  std::printf("=== Anonymity sets per fingerprinting vector ===\n");
  const study::Dataset ds = bench::timed_main_dataset();

  util::TextTable table({"Vector", "min k", "median k", "max k", "unique",
                         "k<5", "k<20", "E[k]"});
  auto add_row = [&](const std::string& name, std::span<const int> labels) {
    const analysis::AnonymityStats s = analysis::anonymity_from_labels(labels);
    table.add_row({name, util::TextTable::fmt(s.min_k),
                   util::TextTable::fmt(s.median_k),
                   util::TextTable::fmt(s.max_k),
                   util::TextTable::fmt(s.unique_users),
                   util::TextTable::fmt(s.below_5),
                   util::TextTable::fmt(s.below_20),
                   util::TextTable::fmt(s.expected_k, 1)});
  };

  const auto audio_ids =
      fingerprint::VectorRegistry::instance().audio_ids();
  for (const VectorId id : audio_ids) {
    add_row(std::string(to_string(id)),
            study::collated_clustering(ds, id).labels);
  }
  add_row("Combined (audio)", study::combined_audio_labels(ds));
  for (const VectorId id :
       {VectorId::kCanvas, VectorId::kFonts, VectorId::kUserAgent}) {
    add_row(std::string(to_string(id)), study::static_labels(ds, id));
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading: audio fingerprints leave the median user hiding among "
      "hundreds\n(big clusters), while Fonts/Canvas leave a large share of "
      "users with k < 5 —\nthe same asymmetry as the paper's entropy "
      "comparison, in privacy units.\n");
  return 0;
}
