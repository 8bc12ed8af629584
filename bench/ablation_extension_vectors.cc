// Ablation: do the two extension vectors (Filter Sweep, Distortion) add
// fingerprint surface beyond the paper's seven? Answers the paper's closing
// question about further causal factors by probing node types the study
// never exercised.
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "analysis/entropy.h"
#include "bench_common.h"
#include "fingerprint/render_cache.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;
  using fingerprint::VectorId;

  constexpr std::size_t kUsers = 1000;
  std::printf("=== Extension vectors: added diversity over the paper's "
              "seven (%zu users, stable renders) ===\n\n",
              kUsers);

  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, kUsers, 777);
  fingerprint::RenderCache cache;

  auto labels_for = [&](VectorId id) {
    const auto& vector = fingerprint::audio_vector(id);
    std::unordered_map<util::Digest, int> dense;
    std::vector<int> labels;
    labels.reserve(kUsers);
    for (const auto& user : population.users()) {
      const util::Digest& d = cache.get(vector, user.profile, 0);
      const auto [it, inserted] =
          dense.try_emplace(d, static_cast<int>(dense.size()));
      labels.push_back(it->second);
    }
    return labels;
  };

  util::TextTable table({"Vector", "Distinct", "Entropy", "e_norm"});
  std::vector<std::vector<int>> paper_seven;
  const auto audio_ids =
      fingerprint::VectorRegistry::instance().audio_ids();
  for (const VectorId id : audio_ids) {
    std::vector<int> labels = labels_for(id);
    const auto stats = analysis::diversity_from_labels(labels);
    table.add_row({std::string(to_string(id)),
                   util::TextTable::fmt(stats.distinct),
                   util::TextTable::fmt(stats.entropy),
                   util::TextTable::fmt(stats.normalized)});
    paper_seven.push_back(std::move(labels));
  }

  std::vector<std::vector<int>> all_nine = paper_seven;
  const auto ext_ids =
      fingerprint::VectorRegistry::instance().extension_ids();
  for (const VectorId id : ext_ids) {
    std::vector<int> labels = labels_for(id);
    const auto stats = analysis::diversity_from_labels(labels);
    table.add_row({std::string(to_string(id)) + " (ext)",
                   util::TextTable::fmt(stats.distinct),
                   util::TextTable::fmt(stats.entropy),
                   util::TextTable::fmt(stats.normalized)});
    all_nine.push_back(std::move(labels));
  }

  const auto combined7 =
      analysis::diversity_from_labels(analysis::combine_labels(paper_seven));
  const auto combined9 =
      analysis::diversity_from_labels(analysis::combine_labels(all_nine));
  table.add_row({"Combined (paper 7)", util::TextTable::fmt(combined7.distinct),
                 util::TextTable::fmt(combined7.entropy),
                 util::TextTable::fmt(combined7.normalized)});
  table.add_row({"Combined (7 + 2 ext)",
                 util::TextTable::fmt(combined9.distinct),
                 util::TextTable::fmt(combined9.entropy),
                 util::TextTable::fmt(combined9.normalized)});

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading: the extension vectors see the same platform knobs through "
      "different\nnode code, so they mostly confirm the seven vectors' "
      "partition; any increase\nin the 9-vector combination over the "
      "7-vector one is surface the paper's set\nmissed.\n");
  return 0;
}
