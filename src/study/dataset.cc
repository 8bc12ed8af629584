#include "study/dataset.h"

#include <array>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "fingerprint/batch_renderer.h"
#include "fingerprint/collector.h"
#include "fingerprint/vector_registry.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace wafp::study {
namespace {

/// The study's non-audio vectors, in registry order (which the snapshot
/// layout below depends on).
std::span<const fingerprint::VectorId> static_ids() {
  return fingerprint::VectorRegistry::instance().static_ids();
}

/// Hex-nibble decode table: 0-15 for [0-9a-f], -1 otherwise.
constexpr std::array<std::int8_t, 256> kNibbleTable = [] {
  std::array<std::int8_t, 256> t{};
  for (auto& v : t) v = -1;
  for (int c = '0'; c <= '9'; ++c) t[static_cast<std::size_t>(c)] =
      static_cast<std::int8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) t[static_cast<std::size_t>(c)] =
      static_cast<std::int8_t>(c - 'a' + 10);
  return t;
}();

util::Digest parse_digest_hex(const std::string& hex) {
  util::Digest d;
  if (hex.size() != 64) throw std::runtime_error("bad digest hex length");
  for (std::size_t i = 0; i < 32; ++i) {
    const std::int8_t hi =
        kNibbleTable[static_cast<std::uint8_t>(hex[2 * i])];
    const std::int8_t lo =
        kNibbleTable[static_cast<std::uint8_t>(hex[2 * i + 1])];
    if (hi < 0 || lo < 0) throw std::runtime_error("bad digest hex digit");
    d.bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return d;
}

/// Key identifying everything a static vector can see (for memoization
/// across users sharing the same visible attributes).
std::string static_vector_key(fingerprint::VectorId id,
                              const platform::PlatformProfile& p) {
  std::string key(to_string(id));
  switch (id) {
    case fingerprint::VectorId::kCanvas:
      key += p.gpu_renderer + '|' + std::to_string(p.canvas_quirk) + '|' +
             std::to_string(p.font_profile) + '|' + p.browser_version + '|' +
             std::string(to_string(p.engine)) + '|' +
             std::to_string(p.os_build);
      break;
    case fingerprint::VectorId::kUserAgent:
      key += p.user_agent();
      break;
    case fingerprint::VectorId::kMathJs:
      key += std::string(dsp::to_string(p.js_math)) + '|' +
             std::to_string(p.atan_build);
      break;
    case fingerprint::VectorId::kFonts:
      // Extra fonts are per-user; memoization rarely helps. No key reuse.
      return {};
    default:
      break;
  }
  return key;
}

/// Cross-user memo for static-vector digests, striped like the render
/// cache. Per-entry call_once gating: concurrent racers on one cold key
/// wait for a single compute instead of duplicating it (Canvas rendering
/// dominates the static-vector cost).
class StaticVectorMemo {
 public:
  util::Digest get_or_compute(const std::string& key,
                              fingerprint::VectorId id,
                              const platform::PlatformProfile& profile) {
    Shard& shard = shards_[util::fnv1a64(key) % kShards];
    Entry* entry = nullptr;
    {
      util::MutexLock lock(shard.mu);
      auto [it, inserted] = shard.map.try_emplace(key);
      if (inserted) it->second = std::make_unique<Entry>();
      entry = it->second.get();
    }
    std::call_once(entry->once, [&] {
      entry->digest = fingerprint::run_static_vector(id, profile);
    });
    return entry->digest;
  }

 private:
  static constexpr std::size_t kShards = 8;
  struct Entry {
    std::once_flag once;
    util::Digest digest;
  };
  struct Shard {
    util::Mutex mu;
    std::unordered_map<std::string, std::unique_ptr<Entry>> map
        WAFP_GUARDED_BY(mu);
  };
  std::array<Shard, kShards> shards_;
};

}  // namespace

Dataset::Dataset(const StudyConfig& config)
    : config_(config),
      catalog_(std::make_unique<platform::DeviceCatalog>(config.tuning)),
      population_(std::make_unique<platform::Population>(
          *catalog_, config.num_users, config.seed)) {
  audio_.resize(config.num_users * 7 * config.iterations);
  static_.resize(config.num_users * static_ids().size());
}

std::size_t Dataset::audio_vector_index(fingerprint::VectorId id) {
  // The registry lists the audio vectors in enum order (kDc..kFm = 0..6),
  // so the index is the enum value itself; a one-time check guards the
  // table against anyone reordering the registry.
  [[maybe_unused]] static const bool order_checked = [] {
    const auto ids = fingerprint::VectorRegistry::instance().audio_ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      WAFP_CHECK(ids[i] == static_cast<fingerprint::VectorId>(i))
          << "audio_vector_ids() order changed at index " << i;
    }
    return true;
  }();
  const auto index = static_cast<std::size_t>(id);
  if (index >= 7) throw std::invalid_argument("not an audio vector");
  return index;
}

std::size_t Dataset::static_vector_index(fingerprint::VectorId id) {
  for (std::size_t i = 0; i < static_ids().size(); ++i) {
    if (static_ids()[i] == id) return i;
  }
  throw std::invalid_argument("not a static vector");
}

Dataset Dataset::collect(const StudyConfig& config) {
  WAFP_SPAN("study/collect");
  Dataset ds(config);
  fingerprint::RenderCache cache;
  StaticVectorMemo static_memo;
  const auto audio_ids = fingerprint::VectorRegistry::instance().audio_ids();

  // One collector per chunk (its draw counters are sharded registry
  // instruments, safe under concurrent increments); the render cache and
  // static memo are shared and concurrency-safe. Each chunk writes only its
  // own users' slots, and every digest is a pure function of (profile
  // stack, derived seed), so the dataset is bit-identical at any thread
  // count — metrics are purely observational.
  fingerprint::CollectorOptions collector_options;
  collector_options.cache = &cache;

  // Phase 1 — batched prewarm: enumerate every render class the collection
  // below will ask for (draw_jitter is deterministic, so the jitter states
  // replay identically) and render the distinct classes grouped by stack
  // archetype. Chaotic draws derive from the stable render, so they enqueue
  // state 0. Afterwards the user-major pass is pure cache hits, which is
  // what makes it safe to parallelize without duplicate render work.
  {
    WAFP_SPAN("prewarm");
    fingerprint::FingerprintCollector draws(collector_options);
    fingerprint::BatchRenderer batch(cache);
    for (std::size_t u = 0; u < ds.population_->size(); ++u) {
      const platform::StudyUser& user = ds.population_->user(u);
      for (const fingerprint::VectorId id : audio_ids) {
        const auto& vector = fingerprint::audio_vector(id);
        for (std::uint32_t it = 0; it < config.iterations; ++it) {
          const webaudio::RenderJitter jitter =
              draws.draw_jitter(user, vector, it);
          batch.request(vector, user.profile,
                        jitter.chaos_seed != 0 ? 0 : jitter.state);
        }
      }
    }
    batch.render_all(config.threads);
  }

  auto collect_range = [&](std::size_t begin, std::size_t end) {
    fingerprint::FingerprintCollector collector(collector_options);
    for (std::size_t u = begin; u < end; ++u) {
      const platform::StudyUser& user = ds.population_->user(u);
      for (std::size_t v = 0; v < audio_ids.size(); ++v) {
        for (std::uint32_t it = 0; it < config.iterations; ++it) {
          ds.audio_[(u * audio_ids.size() + v) * config.iterations + it] =
              collector.collect(user, audio_ids[v], it);
        }
      }
      for (std::size_t s = 0; s < static_ids().size(); ++s) {
        const std::string key =
            static_vector_key(static_ids()[s], user.profile);
        ds.static_[u * static_ids().size() + s] =
            key.empty()
                ? fingerprint::run_static_vector(static_ids()[s],
                                                 user.profile)
                : static_memo.get_or_compute(key, static_ids()[s],
                                             user.profile);
      }
    }
  };

  if (config.threads == 1) {
    collect_range(0, ds.population_->size());
  } else {
    util::ThreadPool pool(config.threads);
    pool.parallel_for(ds.population_->size(), collect_range);
  }
  return ds;
}

Dataset Dataset::load_or_collect(const StudyConfig& config,
                                 const std::string& path) {
  if (!path.empty() && std::filesystem::exists(path)) {
    const auto rows = util::read_csv_file(path);
    // Header row: config fingerprint. Accept only an exact match.
    if (!rows.empty() && rows[0].size() >= 3 &&
        rows[0][0] == std::to_string(config.num_users) &&
        rows[0][1] == std::to_string(config.iterations) &&
        rows[0][2] == std::to_string(config.seed)) {
      Dataset ds(config);
      const std::size_t expected =
          ds.audio_.size() + ds.static_.size() + 1;
      if (rows.size() == expected) {
        std::size_t r = 1;
        for (std::size_t i = 0; i < ds.audio_.size(); ++i, ++r) {
          ds.audio_[i] = parse_digest_hex(rows[r].at(3));
        }
        for (std::size_t i = 0; i < ds.static_.size(); ++i, ++r) {
          ds.static_[i] = parse_digest_hex(rows[r].at(3));
        }
        return ds;
      }
    }
  }
  Dataset ds = collect(config);
  if (!path.empty()) ds.save_csv(path);
  return ds;
}

const util::Digest& Dataset::audio_observation(std::size_t user,
                                               fingerprint::VectorId id,
                                               std::uint32_t iteration) const {
  return audio_[(user * 7 + audio_vector_index(id)) * config_.iterations +
                iteration];
}

std::span<const util::Digest> Dataset::audio_observations(
    std::size_t user, fingerprint::VectorId id) const {
  return std::span(audio_).subspan(
      (user * 7 + audio_vector_index(id)) * config_.iterations,
      config_.iterations);
}

const util::Digest& Dataset::static_observation(
    std::size_t user, fingerprint::VectorId id) const {
  return static_[user * static_ids().size() + static_vector_index(id)];
}

bool Dataset::save_csv(const std::string& path) const {
  // Streamed row by row: a full study is ~440k rows, which CsvWriter would
  // otherwise buffer entirely before the first byte hits disk.
  util::CsvStreamWriter csv(path);
  if (!csv.ok()) return false;
  csv.write_row({std::to_string(config_.num_users),
                 std::to_string(config_.iterations),
                 std::to_string(config_.seed)});
  const auto audio_ids = fingerprint::VectorRegistry::instance().audio_ids();
  for (std::size_t u = 0; u < num_users(); ++u) {
    const std::string user = std::to_string(u);
    for (std::size_t v = 0; v < audio_ids.size(); ++v) {
      for (std::uint32_t it = 0; it < config_.iterations; ++it) {
        csv.write_row({user, to_string(audio_ids[v]), std::to_string(it),
                       audio_[(u * 7 + v) * config_.iterations + it].hex()});
      }
    }
  }
  for (std::size_t u = 0; u < num_users(); ++u) {
    const std::string user = std::to_string(u);
    for (std::size_t s = 0; s < static_ids().size(); ++s) {
      csv.write_row({user, to_string(static_ids()[s]), "0",
                     static_[u * static_ids().size() + s].hex()});
    }
  }
  return csv.finish();
}

bool Dataset::save_profiles_csv(const std::string& path) const {
  util::CsvStreamWriter csv(path);
  if (!csv.ok()) return false;
  csv.write_row({"user", "os", "os_version", "browser", "browser_version",
                 "engine", "arch", "device_model", "country", "simd_tier",
                 "flakiness", "user_agent", "audio_class_key"});
  for (const platform::StudyUser& user : population_->users()) {
    const platform::PlatformProfile& p = user.profile;
    csv.write_row({std::to_string(user.id), to_string(p.os), p.os_version,
                   to_string(p.browser), p.browser_version,
                   to_string(p.engine), to_string(p.arch), p.device_model,
                   p.country, std::to_string(p.simd_tier),
                   std::to_string(p.fickle.flakiness), p.user_agent(),
                   p.audio.class_key()});
  }
  return csv.finish();
}

}  // namespace wafp::study
