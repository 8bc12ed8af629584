#include "study/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "platform/canvas_sim.h"
#include "util/csv.h"

namespace wafp::study {
namespace {

StudyConfig small_config() {
  StudyConfig cfg;
  cfg.num_users = 40;
  cfg.iterations = 6;
  cfg.seed = 1234;
  return cfg;
}

/// Collect once; datasets are immutable.
const Dataset& small_dataset() {
  static const Dataset ds = Dataset::collect(small_config());
  return ds;
}

TEST(DatasetTest, ShapesMatchConfig) {
  const Dataset& ds = small_dataset();
  EXPECT_EQ(ds.num_users(), 40u);
  EXPECT_EQ(ds.iterations(), 6u);
  EXPECT_EQ(ds.users().size(), 40u);
  for (const fingerprint::VectorId id : fingerprint::audio_vector_ids()) {
    EXPECT_EQ(ds.audio_observations(0, id).size(), 6u);
  }
}

// The prewarm phase nests inside the collect span, so its own name must
// be relative: the trace path reads study/collect/prewarm.
TEST(DatasetTest, CollectSpansNestUnderCollect) {
  StudyConfig cfg = small_config();
  cfg.num_users = 4;
  cfg.iterations = 1;
  cfg.threads = 1;
  obs::ScopedTraceCapture capture;
  (void)Dataset::collect(cfg);
  std::vector<std::string> paths;
  for (const obs::SpanEvent& event : capture.events()) {
    paths.push_back(event.path);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"study/collect/prewarm",
                                             "study/collect"}));
}

TEST(DatasetTest, ObservationAccessorsConsistent) {
  const Dataset& ds = small_dataset();
  for (std::size_t u = 0; u < 5; ++u) {
    for (const fingerprint::VectorId id : fingerprint::audio_vector_ids()) {
      const auto all = ds.audio_observations(u, id);
      for (std::uint32_t it = 0; it < 6; ++it) {
        EXPECT_EQ(all[it], ds.audio_observation(u, id, it));
      }
    }
  }
}

TEST(DatasetTest, CollectionIsDeterministic) {
  const Dataset again = Dataset::collect(small_config());
  const Dataset& ds = small_dataset();
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (const fingerprint::VectorId id : fingerprint::audio_vector_ids()) {
      for (std::uint32_t it = 0; it < ds.iterations(); ++it) {
        ASSERT_EQ(ds.audio_observation(u, id, it),
                  again.audio_observation(u, id, it));
      }
    }
    EXPECT_EQ(ds.static_observation(u, fingerprint::VectorId::kCanvas),
              again.static_observation(u, fingerprint::VectorId::kCanvas));
  }
}

TEST(DatasetTest, DcObservationsAreStablePerUser) {
  const Dataset& ds = small_dataset();
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    const auto all = ds.audio_observations(u, fingerprint::VectorId::kDc);
    for (const util::Digest& d : all) EXPECT_EQ(d, all[0]);
  }
}

TEST(DatasetTest, CsvRoundTrip) {
  const std::string path = "test_dataset_roundtrip.csv";
  const Dataset& ds = small_dataset();
  ASSERT_TRUE(ds.save_csv(path));

  const Dataset loaded = Dataset::load_or_collect(small_config(), path);
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (const fingerprint::VectorId id : fingerprint::audio_vector_ids()) {
      for (std::uint32_t it = 0; it < ds.iterations(); ++it) {
        ASSERT_EQ(loaded.audio_observation(u, id, it),
                  ds.audio_observation(u, id, it));
      }
    }
    for (const fingerprint::VectorId id :
         {fingerprint::VectorId::kCanvas, fingerprint::VectorId::kFonts,
          fingerprint::VectorId::kUserAgent, fingerprint::VectorId::kMathJs}) {
      ASSERT_EQ(loaded.static_observation(u, id), ds.static_observation(u, id));
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadRejectsMismatchedConfig) {
  const std::string path = "test_dataset_mismatch.csv";
  ASSERT_TRUE(small_dataset().save_csv(path));

  StudyConfig other = small_config();
  other.seed = 9999;
  // Mismatch -> recollect (and overwrite); digests must then match a fresh
  // collection under the new seed, not the old file.
  const Dataset loaded = Dataset::load_or_collect(other, path);
  const Dataset fresh = Dataset::collect(other);
  EXPECT_EQ(loaded.audio_observation(0, fingerprint::VectorId::kDc, 0),
            fresh.audio_observation(0, fingerprint::VectorId::kDc, 0));
  std::remove(path.c_str());
}

// The canvas memo keys on the renderer's read set, so a collection pays for
// exactly one canvas render per distinct canvas_key, and the counter the
// parallel_pipeline bench reports sees each of them.
TEST(DatasetTest, RendersOneCanvasPerDistinctCanvasKey) {
  obs::Counter& canvases = obs::MetricsRegistry::global().counter(
      "wafp_static_memo_misses_total", {},
      obs::label("vector", to_string(fingerprint::VectorId::kCanvas)));
  StudyConfig cfg = small_config();
  cfg.threads = 2;
  const std::uint64_t before = canvases.value();
  const Dataset ds = Dataset::collect(cfg);
  std::set<std::string> keys;
  for (const platform::StudyUser& user : ds.users()) {
    keys.insert(platform::canvas_key(user.profile));
  }
  EXPECT_EQ(canvases.value() - before, keys.size());
  EXPECT_LT(keys.size(), ds.num_users());
}

/// Save the small dataset to `path`, then replace line `line` (1-based;
/// line 1 is the config header) with `replacement`.
void write_corrupted_csv(const std::string& path, std::size_t line,
                         const std::string& replacement) {
  ASSERT_TRUE(small_dataset().save_csv(path));
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string l; std::getline(in, l);) lines.push_back(l);
  }
  ASSERT_GE(lines.size(), line);
  lines[line - 1] = replacement;
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
}

/// load_or_collect must throw std::runtime_error whose message names
/// `path:line` and contains `what`.
void expect_load_error(const std::string& path, std::size_t line,
                       const std::string& what) {
  try {
    (void)Dataset::load_or_collect(small_config(), path);
    ADD_FAILURE() << "no error for corrupted " << path;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path + ':' + std::to_string(line) + ": "),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  }
}

TEST(DatasetTest, LoadRejectsShortRowNamingIt) {
  const std::string path = "test_dataset_short_row.csv";
  write_corrupted_csv(path, 5, "3,DC");
  expect_load_error(path, 5, "short row (2 fields, need 4)");
  std::remove(path.c_str());
}

TEST(DatasetTest, LoadRejectsBadHexDigitNamingTheRow) {
  const std::string path = "test_dataset_bad_hex.csv";
  // Static rows follow the audio rows; corrupt the last one.
  const std::size_t line = 1 + small_dataset().num_users() *
                                   (7 * small_dataset().iterations() + 4);
  write_corrupted_csv(path, line,
                      "39,Canvas,0," + std::string(63, 'a') + "g");
  expect_load_error(path, line, "bad digest hex digit");
  std::remove(path.c_str());
}

TEST(DatasetTest, ProfilesCsvExport) {
  const std::string path = "test_profiles.csv";
  ASSERT_TRUE(small_dataset().save_profiles_csv(path));
  const auto rows = util::read_csv_file(path);
  ASSERT_EQ(rows.size(), 41u);  // header + 40 users
  EXPECT_EQ(rows[0][0], "user");
  EXPECT_EQ(rows[1].size(), 13u);
  EXPECT_TRUE(rows[1][11].starts_with("Mozilla/5.0"));
  std::remove(path.c_str());
}

TEST(DatasetTest, FollowupConfigDiffers) {
  const StudyConfig followup = StudyConfig::followup();
  EXPECT_EQ(followup.num_users, 528u);
  EXPECT_NE(followup.seed, StudyConfig{}.seed);
}

TEST(DatasetTest, InvalidVectorAccessThrows) {
  const Dataset& ds = small_dataset();
  EXPECT_THROW((void)ds.audio_observation(0, fingerprint::VectorId::kCanvas, 0),
               std::invalid_argument);
  EXPECT_THROW(
      (void)ds.static_observation(0, fingerprint::VectorId::kDc),
      std::invalid_argument);
}

}  // namespace
}  // namespace wafp::study
