// RenderCache: memoizes audio fingerprint digests per (audio stack, vector,
// jitter state).
//
// Correctness rests on a property tests assert directly: a rendered digest
// is a pure function of the profile's AudioStack and the RenderJitter —
// nothing else in the profile can reach the audio engine. Two users on the
// same stack therefore share digests, which is both the paper's collision
// phenomenon (Fig. 4: users in one cluster) and what makes a 2093-user x 30
// iteration x 7 vector study tractable (a few hundred renders instead of
// 440k).
//
// One render per group: jitter only reaches the analyser's capture side,
// so render_group() renders a (stack, vector) graph once and publishes the
// digests of every requested jitter state from that single engine pass
// (AudioFingerprintVector::run_states). get() on a cold key is the same
// path with a one-state group.
//
// Concurrency: the cache is striped into kShards mutex-guarded shards
// selected by the key hash, so parallel collection threads rarely contend
// on the map itself. The caller that inserts an entry claims it and
// renders it outside the shard lock; any other caller that finds the entry
// still rendering — a get() or a group that overlaps an in-flight group —
// waits on the shard's condition variable for it (a dedup wait) instead of
// rendering it again. Every entry is therefore rendered exactly once, and
// concurrent collection performs the same renders as serial collection.
// If a render throws, its entries are marked abandoned and the next caller
// to reach one claims and renders it. Returned references stay valid for
// the cache's lifetime: entries are heap-allocated and never erased.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "fingerprint/vector.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wafp::fingerprint {

/// The render-equivalence class of one digest: the full AudioStack (exact
/// equality — a hash collision can never alias two stacks) plus its
/// precomputed class hash so probing re-hashes nothing, the vector id, and
/// the chaos-free jitter state. Shared by RenderCache's shards,
/// BatchRenderer's pending set, and serve::RenderService's coalescing map,
/// so "same class" means exactly the same thing at every dedup layer.
struct RenderClassKey {
  platform::AudioStack stack;
  std::uint64_t stack_hash = 0;
  std::uint32_t vector = 0;
  std::uint32_t jitter = 0;

  bool operator==(const RenderClassKey& o) const {
    return stack_hash == o.stack_hash && vector == o.vector &&
           jitter == o.jitter && stack == o.stack;
  }
};

struct RenderClassKeyHash {
  std::size_t operator()(const RenderClassKey& k) const noexcept {
    std::uint64_t h = k.stack_hash;
    h ^= (static_cast<std::uint64_t>(k.vector) << 32) | k.jitter;
    h *= 0x9E3779B97F4A7C15ULL;  // Fibonacci mix so shard index uses
    return static_cast<std::size_t>(h ^ (h >> 29));  // well-stirred bits
  }
};

/// The class key of `vector` rendered on `profile`'s stack with
/// `jitter_state` (chaos-free). Only profile.audio reaches the key — the
/// digest is a pure function of (AudioStack, vector, jitter), nothing else.
[[nodiscard]] RenderClassKey make_render_class_key(
    const AudioFingerprintVector& vector,
    const platform::PlatformProfile& profile, std::uint32_t jitter_state);

class RenderCache {
 public:
  static constexpr std::size_t kShards = 16;

  /// `metrics` is the sink for cache hit/miss/dedup-wait counters and the
  /// per-vector render-time histograms; nullptr means
  /// obs::MetricsRegistry::global(). Purely observational.
  explicit RenderCache(obs::MetricsRegistry* metrics = nullptr);

  /// Digest of `vector` on `profile`'s stack with the given jitter state
  /// (chaos-free); renders on first use. Safe to call concurrently.
  /// Steady-state contract: once a (stack, vector, jitter) class has been
  /// rendered, get() is a shard-map hit — no allocation, just the shard
  /// lock and counter bumps. wafp_lint's nonallocating check walks this
  /// path from the serve drain; the cold-key miss branch is the audited
  /// exception (see render_claimed).
  const util::Digest& get(const AudioFingerprintVector& vector,
                          const platform::PlatformProfile& profile,
                          std::uint32_t jitter_state);

  /// Make every state in `jitter_states` (chaos-free, distinct) of
  /// `vector` on `profile`'s stack present: the states not yet cached are
  /// rendered together in one engine pass and published; states already
  /// cached are hits, and states another caller is rendering are waited
  /// for. Returns once every requested state is published. Safe to call
  /// concurrently with get() and other groups.
  void render_group(const AudioFingerprintVector& vector,
                    const platform::PlatformProfile& profile,
                    std::span<const std::uint32_t> jitter_states);

  /// Distinct (stack, vector, jitter) classes seen so far.
  [[nodiscard]] std::size_t entries() const;
  /// Lookups that found an existing entry (possibly waiting on its
  /// in-flight render).
  [[nodiscard]] std::size_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Lookups that created the entry and rendered it; always == entries().
  [[nodiscard]] std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Engine passes performed; each renders one or more entries.
  [[nodiscard]] std::size_t renders() const {
    return renders_.load(std::memory_order_relaxed);
  }

 private:
  using Key = RenderClassKey;
  using KeyHash = RenderClassKeyHash;

  /// Heap-allocated so references survive rehashing. `state` and, until
  /// the entry is ready, `digest` are guarded by the owning shard's mutex;
  /// once ready the digest is immutable and read without the lock.
  struct Entry {
    enum class State : std::uint8_t { kRendering, kReady, kAbandoned };
    State state = State::kRendering;
    util::Digest digest;
  };
  struct Shard {
    mutable util::Mutex mu;
    /// Entries are pointees, not values: the map (bucket array, rehashing)
    /// is guarded, and so is each entry's state.
    std::unordered_map<Key, std::unique_ptr<Entry>, KeyHash> map
        WAFP_GUARDED_BY(mu);
    /// Signalled whenever an entry of this shard leaves kRendering.
    util::CondVar published;
  };
  /// A looked-up entry and what the lookup found: kClaimed means this
  /// caller inserted (or re-claimed an abandoned) entry and must render it.
  struct Lookup {
    enum class Found : std::uint8_t { kReady, kClaimed, kInFlight };
    Entry* entry = nullptr;
    Shard* shard = nullptr;
    Found found = Found::kReady;
  };

  /// Find or insert the entry for `key` and bump the hit/miss/dedup-wait
  /// counters. Never waits, so a caller can claim a whole group before
  /// waiting on anyone else's render (no claim is held while waiting).
  Lookup lookup(const Key& key);

  /// Block until an in-flight entry is published and return its digest;
  /// if its renderer failed, claim and render it here.
  const util::Digest& await(const Lookup& lookup,
                            const AudioFingerprintVector& vector,
                            const platform::PlatformProfile& profile,
                            std::uint32_t jitter_state);

  /// Cold path: render the claimed entries (all of `vector` on `profile`'s
  /// stack, one per jitter state) in one engine pass and publish them, or
  /// mark them abandoned if the render throws. Kept out of the
  /// nonallocating contract — steady state never reaches it (proven by the
  /// counter audits in the serve steady-state test).
  void render_claimed(const AudioFingerprintVector& vector,
                      const platform::PlatformProfile& profile,
                      std::span<const Lookup> claimed,
                      std::span<const webaudio::RenderJitter> jitters);

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> renders_{0};

  /// Registry-backed mirrors of the per-instance tallies above (the
  /// per-instance atomics stay authoritative for `hits()`/`misses()`; the
  /// registry aggregates across every cache in the process). Counter
  /// references are resolved once at construction — instruments are
  /// heap-stable — so `get()` never touches the registry maps.
  obs::MetricsRegistry& metrics_;
  obs::Counter& hit_counter_;
  obs::Counter& miss_counter_;
  obs::Counter& dedup_wait_counter_;
};

}  // namespace wafp::fingerprint
