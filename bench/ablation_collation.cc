// Ablation: what does the paper's graph collation actually buy?
//
// Compares three linking strategies on the same flaky dataset:
//   naive      — a visitor is re-identified only if a probe digest exactly
//                equals one of their OWN enrolled digests (what a
//                fingerprinter without §3.2's graph would do);
//   digest-set — probe matches any user sharing a digest (exact-match
//                lookup table, still no transitive merging);
//   collation  — the paper's connected-component match (Table 6's method).
#include <cstdio>
#include <set>
#include <unordered_map>

#include "bench_common.h"
#include "fingerprint/vector_registry.h"
#include "study/experiments.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;
  using fingerprint::VectorId;

  std::printf("=== Ablation: naive matching vs graph collation ===\n");
  const study::Dataset ds = bench::timed_main_dataset();
  constexpr std::size_t kTrain = 3;  // first subset trains (paper s=3)

  util::TextTable table({"Vector", "naive self-match", "digest-set match",
                         "graph collation (paper)"});
  const auto audio_ids =
      fingerprint::VectorRegistry::instance().audio_ids();
  for (const VectorId id : audio_ids) {
    // Train structures from iterations [0, kTrain).
    std::unordered_map<util::Digest, std::set<std::uint32_t>> owners;
    std::vector<std::set<util::Digest>> own(ds.num_users());
    for (std::uint32_t u = 0; u < ds.num_users(); ++u) {
      for (std::uint32_t it = 0; it < kTrain; ++it) {
        const util::Digest& d = ds.audio_observation(u, id, it);
        owners[d].insert(u);
        own[u].insert(d);
      }
    }

    // Probe with the next kTrain iterations.
    std::size_t naive_hits = 0, set_hits = 0;
    for (std::uint32_t u = 0; u < ds.num_users(); ++u) {
      bool naive = false;
      bool via_set = false;
      for (std::uint32_t it = kTrain; it < 2 * kTrain; ++it) {
        const util::Digest& d = ds.audio_observation(u, id, it);
        if (own[u].contains(d)) naive = true;
        const auto it_owner = owners.find(d);
        if (it_owner != owners.end() && it_owner->second.contains(u)) {
          via_set = true;
        }
      }
      naive_hits += naive;
      set_hits += via_set;
    }

    const double graph_score =
        study::fingerprint_match_score(ds, id, kTrain);
    const auto pct = [&](std::size_t hits) {
      return util::TextTable::fmt(
                 100.0 * static_cast<double>(hits) /
                     static_cast<double>(ds.num_users()),
                 2) +
             "%";
    };
    table.add_row({std::string(to_string(id)), pct(naive_hits),
                   pct(set_hits),
                   util::TextTable::fmt(graph_score * 100.0, 2) + "%"});
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading: for the stable DC vector all strategies tie; for fickle "
      "vectors the\nnaive strategies lose the users whose fresh iterations "
      "drew digests never seen\nduring their own enrolment, while the "
      "collation graph recovers them through\nshared platform fingerprints "
      "— the paper's §3.2 contribution, quantified.\n");
  return 0;
}
