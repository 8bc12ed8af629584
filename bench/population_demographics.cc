// Reproduces the paper's §2.3 participant demographics for the simulated
// population: OS and browser marginals and the country spread — the sanity
// check that the catalog stands in for the study's 2093 MTurk users.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "util/table.h"

int main(int argc, char** argv) {
  if (const int rc = wafp::bench::reject_arguments(argc, argv)) return rc;
  using namespace wafp;

  constexpr std::size_t kUsers = 2093;
  const platform::DeviceCatalog catalog;
  const platform::Population population(catalog, kUsers, 2021);

  std::printf("=== §2.3 participant demographics (simulated, %zu users) "
              "===\n\n",
              kUsers);

  std::map<std::string, int> os_counts, browser_counts, country_counts;
  int firefox = 0;
  for (const auto& user : population.users()) {
    ++os_counts[std::string(to_string(user.profile.os))];
    ++browser_counts[std::string(to_string(user.profile.browser))];
    ++country_counts[user.profile.country];
    firefox += user.profile.browser == platform::BrowserFamily::kFirefox;
  }

  util::TextTable os_table({"OS", "share", "paper"});
  const std::map<std::string, const char*> paper_os = {
      {"Windows", "78.5%"}, {"macOS", "9.4%"}, {"Android", "6.9%"},
      {"Linux", "5.2%"}};
  for (const auto& [os, count] : os_counts) {
    os_table.add_row({os,
                      util::TextTable::fmt(100.0 * count / kUsers, 1) + "%",
                      paper_os.count(os) ? paper_os.at(os) : "-"});
  }
  std::fputs(os_table.render().c_str(), stdout);

  std::printf("\nFirefox share: %.1f%% (paper: 9.6%%; remaining %.1f%% are "
              "Chromium-family)\n\n",
              100.0 * firefox / kUsers, 100.0 * (kUsers - firefox) / kUsers);

  util::TextTable browser_table({"Browser", "users"});
  for (const auto& [browser, count] : browser_counts) {
    browser_table.add_row({browser, util::TextTable::fmt(
                                        static_cast<std::size_t>(count))});
  }
  std::fputs(browser_table.render().c_str(), stdout);

  std::printf("\nCountries represented: %zu (paper: 57)\n",
              country_counts.size());
  std::printf("Countries with >= 100 participants (paper: US, IN, BR, IT):\n");
  for (const auto& [country, count] : country_counts) {
    if (count >= 100) std::printf("  %s: %d\n", country.c_str(), count);
  }
  return 0;
}
