// Retention-window tracking: the paper's collation graph with a data
// lifetime (collation/expiring_graph.h). Shows what a fingerprinter loses when
// observations must be deleted after N days (GDPR-style retention): stale
// bridges dissolve, clusters fragment, and returning visitors outside the
// window become unmatchable.
//
//   ./build/examples/retention_window [num_users] [window_days]
#include <charconv>
#include <cstdio>
#include <string_view>
#include <vector>

#include "collation/expiring_graph.h"
#include "fingerprint/collector.h"
#include "platform/catalog.h"
#include "platform/population.h"

namespace {

// Strict positive decimal: the whole argument, no sign, no overflow.
bool parse_positive(std::string_view text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end && out > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wafp;

  std::size_t num_users = 300;
  std::size_t window_days = 30;
  if (argc > 3 || (argc > 1 && !parse_positive(argv[1], num_users)) ||
      (argc > 2 && !parse_positive(argv[2], window_days))) {
    std::fprintf(stderr,
                 "usage: %s [num_users] [window_days] (positive integers)\n",
                 argv[0]);
    return 2;
  }

  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, num_users, 1212);
  fingerprint::RenderCache cache;
  fingerprint::FingerprintCollector collector(cache);
  collation::ExpiringFingerprintGraph graph(num_users * 40);

  // Visit model: each user visits on day (id % 7), then weekly; a third of
  // users churn out after day 30.
  constexpr std::uint64_t kDays = 90;
  const fingerprint::VectorId vector = fingerprint::VectorId::kHybrid;

  std::printf("Simulating %llu days of visits (%zu users, %llu-day "
              "retention window)\n\n",
              static_cast<unsigned long long>(kDays), num_users,
              static_cast<unsigned long long>(window_days));
  std::printf("%6s %14s %12s %10s\n", "day", "active users", "clusters",
              "edges");

  std::uint32_t iteration = 0;
  for (std::uint64_t day = 1; day <= kDays; ++day) {
    for (const platform::StudyUser& user : population.users()) {
      const bool churned = user.id % 3 == 0 && day > 30;
      if (churned || day % 7 != user.id % 7) continue;
      // Each visit submits two fingerprinting iterations.
      for (int repeat = 0; repeat < 2; ++repeat) {
        graph.add_observation(
            user.id, collector.collect(user, vector, iteration % 30), day);
        ++iteration;
      }
    }
    graph.expire_before(day > window_days ? day - window_days : 0);

    if (day % 15 == 0) {
      std::printf("%6llu %14zu %12zu %10zu\n",
                  static_cast<unsigned long long>(day),
                  graph.active_user_count(), graph.cluster_count(),
                  graph.observation_count());
    }
  }

  // Re-identification test at day kDays: probe every user with fresh
  // renders; those outside the window must be unmatchable.
  std::size_t matched_active = 0, matched_churned = 0, churned_total = 0,
              active_total = 0;
  std::vector<util::Digest> probe;
  for (const platform::StudyUser& user : population.users()) {
    probe.clear();
    for (std::uint32_t it = 0; it < 3; ++it) {
      probe.push_back(collector.collect(user, vector, it));
    }
    const auto hit = graph.match(probe);
    const auto expected = graph.user_component(user.id);
    const bool matched = hit.has_value() && expected.has_value() &&
                         graph.nodes_connected(*hit, *expected);
    const bool churned = user.id % 3 == 0;
    if (churned) {
      ++churned_total;
      matched_churned += matched;
    } else {
      ++active_total;
      matched_active += matched;
    }
  }

  std::printf("\nRe-identification at day %llu:\n",
              static_cast<unsigned long long>(kDays));
  std::printf("  still-visiting users : %zu / %zu matched\n", matched_active,
              active_total);
  std::printf("  churned users (last seen before the window): %zu / %zu "
              "matched\n",
              matched_churned, churned_total);
  std::printf(
      "\nReading: the retention window erases churned users — a privacy "
      "win the\ninsert-only graph cannot express. Expiry rebuilds the "
      "disjoint-set from the\nsurviving edges, so deletion costs one "
      "linear pass per expiring day.\n");
  return 0;
}
