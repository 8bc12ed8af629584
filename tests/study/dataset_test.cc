#include "study/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/span.h"
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
