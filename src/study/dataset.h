// Dataset: the raw material of the study — every digest each simulated
// participant's browser submitted (30 iterations x 7 audio vectors, plus
// the static comparison vectors), with CSV persistence so analysis binaries
// can re-run without re-rendering (the paper's Firebase role).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fingerprint/vector.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "util/hash.h"

namespace wafp::study {

struct StudyConfig {
  std::size_t num_users = 2093;        // paper §2.3
  std::uint32_t iterations = 30;       // paper §2.2
  std::uint64_t seed = 2021;
  platform::CatalogTuning tuning;

  /// Parallelism degree for collect(): 0 = util::default_thread_count(),
  /// 1 = fully serial. Any value produces a bit-identical dataset (every
  /// digest is a pure function of the profile stack and a derived seed;
  /// threads only partition the user range) — asserted by
  /// tests/study/parallel_collect_test.cc.
  std::size_t threads = 0;

  /// Follow-up study configuration (paper §5, Tables 4-5).
  [[nodiscard]] static StudyConfig followup() {
    StudyConfig cfg;
    cfg.num_users = 528;
    cfg.seed = 528528;
    return cfg;
  }
};

class Dataset {
 public:
  /// Run the full collection: sample the population and collect every
  /// (user, vector, iteration) digest through the (sharded) render cache,
  /// parallelized over users per config.threads.
  [[nodiscard]] static Dataset collect(const StudyConfig& config);

  /// Load from CSV if `path` exists and matches the config; otherwise
  /// collect and save there. Empty path always collects. A matching file
  /// with a short row or a malformed digest throws std::runtime_error
  /// naming the path and line.
  [[nodiscard]] static Dataset load_or_collect(const StudyConfig& config,
                                               const std::string& path);

  [[nodiscard]] const StudyConfig& config() const { return config_; }
  [[nodiscard]] std::span<const platform::StudyUser> users() const {
    return population_->users();
  }
  [[nodiscard]] std::size_t num_users() const { return population_->size(); }
  [[nodiscard]] std::uint32_t iterations() const { return config_.iterations; }

  /// Digest of audio vector `id` for user index `user` at `iteration`.
  [[nodiscard]] const util::Digest& audio_observation(
      std::size_t user, fingerprint::VectorId id,
      std::uint32_t iteration) const;

  /// All iterations of one vector for one user.
  [[nodiscard]] std::span<const util::Digest> audio_observations(
      std::size_t user, fingerprint::VectorId id) const;

  /// Digest of a static vector (Canvas/Fonts/UA/MathJS) for a user.
  [[nodiscard]] const util::Digest& static_observation(
      std::size_t user, fingerprint::VectorId id) const;

  /// Export the raw observations (one row per user x vector x iteration).
  bool save_csv(const std::string& path) const;

  /// Export the simulated participants (one row per user: demographics,
  /// stack attributes, fickleness) — the study's "participant table" for
  /// downstream analysis outside this library.
  bool save_profiles_csv(const std::string& path) const;

 private:
  explicit Dataset(const StudyConfig& config);

  [[nodiscard]] static std::size_t audio_vector_index(fingerprint::VectorId id);
  [[nodiscard]] static std::size_t static_vector_index(
      fingerprint::VectorId id);

  StudyConfig config_;
  std::unique_ptr<platform::DeviceCatalog> catalog_;
  std::unique_ptr<platform::Population> population_;
  // [user * 7 * iterations + vector * iterations + iteration]
  std::vector<util::Digest> audio_;
  // [user * 4 + static_vector_index]
  std::vector<util::Digest> static_;
};

}  // namespace wafp::study
