// H(X | Y) between all fingerprinting vectors — the information-theoretic
// form of the paper's §4 question. Row X, column Y: bits of X a tracker
// still learns after already knowing Y. The W3C claim the paper refutes is
// literally "H(audio | UA) ≈ 0"; this bench prints the measured value.
#include "analysis/conditional.h"
#include "bench_common.h"
#include "study/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;
  using fingerprint::VectorId;

  std::printf("=== Conditional entropy H(row | column), bits ===\n");
  const study::Dataset ds = bench::timed_main_dataset();

  const std::vector<std::pair<std::string, std::vector<int>>> vectors = {
      {"DC", study::collated_clustering(ds, VectorId::kDc).labels},
      {"Hybrid", study::collated_clustering(ds, VectorId::kHybrid).labels},
      {"Audio(all)", study::combined_audio_labels(ds)},
      {"Canvas", study::static_labels(ds, VectorId::kCanvas)},
      {"Fonts", study::static_labels(ds, VectorId::kFonts)},
      {"UA", study::static_labels(ds, VectorId::kUserAgent)},
  };

  std::vector<std::string> header = {"H(row|col)"};
  for (const auto& [name, labels] : vectors) header.push_back(name);
  util::TextTable table(header);
  for (const auto& [row_name, row_labels] : vectors) {
    std::vector<std::string> row = {row_name};
    for (const auto& [col_name, col_labels] : vectors) {
      row.push_back(util::TextTable::fmt(
          analysis::conditional_entropy_bits(row_labels, col_labels), 2));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nKey cells: H(Audio | UA) = %.2f bits (W3C's claim would make this "
      "~0) and\nH(Audio | Canvas) = %.2f bits — the additive value of §4 in "
      "conditional form.\nConversely H(UA | Audio) stays large: the vectors "
      "carry complementary\ninformation, which is why their combination "
      "wins.\n",
      analysis::conditional_entropy_bits(vectors[2].second,
                                         vectors[5].second),
      analysis::conditional_entropy_bits(vectors[2].second,
                                         vectors[3].second));
  return 0;
}
