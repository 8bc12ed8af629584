#include "fingerprint/render_cache.h"

#include <vector>

namespace wafp::fingerprint {

RenderClassKey make_render_class_key(const AudioFingerprintVector& vector,
                                     const platform::PlatformProfile& profile,
                                     std::uint32_t jitter_state) {
  RenderClassKey key;
  key.stack = profile.audio;
  key.stack_hash = profile.audio.class_hash();
  key.vector = static_cast<std::uint32_t>(vector.id());
  key.jitter = jitter_state;
  return key;
}

RenderCache::RenderCache(obs::MetricsRegistry* metrics)
    : metrics_(metrics ? *metrics : obs::MetricsRegistry::global()),
      hit_counter_(metrics_.counter("wafp_cache_hits_total",
                                    "Render-cache lookups that found an "
                                    "existing entry")),
      miss_counter_(metrics_.counter("wafp_cache_misses_total",
                                     "Render-cache lookups that created the "
                                     "entry and rendered it")),
      dedup_wait_counter_(metrics_.counter(
          "wafp_cache_dedup_waits_total",
          "Render-cache hits that blocked on another thread's in-flight "
          "render of the same key")) {}

RenderCache::Lookup RenderCache::lookup(const Key& key) {
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  Lookup result;
  result.shard = &shard;
  bool inserted = false;
  {
    util::MutexLock lock(shard.mu);
    // Cold-key inserts only: after warmup every class is already present
    // and these lines are a pure lookup (the build-free steady state).
    // wafp-lint: allow(nonallocating): cold-key shard insert (miss path)
    auto [it, created] = shard.map.try_emplace(key);
    // wafp-lint: allow(nonallocating): cold-key entry allocation (miss path)
    if (created) it->second = std::make_unique<Entry>();
    result.entry = it->second.get();
    inserted = created;
    if (created) {
      result.found = Lookup::Found::kClaimed;
    } else if (result.entry->state == Entry::State::kReady) {
      result.found = Lookup::Found::kReady;
    } else if (result.entry->state == Entry::State::kAbandoned) {
      result.entry->state = Entry::State::kRendering;
      result.found = Lookup::Found::kClaimed;
    } else {
      result.found = Lookup::Found::kInFlight;
    }
  }
  if (inserted) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter_.inc();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    hit_counter_.inc();
    if (result.found == Lookup::Found::kInFlight) dedup_wait_counter_.inc();
  }
  return result;
}

const util::Digest& RenderCache::get(const AudioFingerprintVector& vector,
                                     const platform::PlatformProfile& profile,
                                     std::uint32_t jitter_state) {
  const Lookup found =
      lookup(make_render_class_key(vector, profile, jitter_state));
  switch (found.found) {
    case Lookup::Found::kReady:
      // The steady state: a warm entry, published before this lookup took
      // the shard lock, so its digest is immutable from here on.
      return found.entry->digest;
    case Lookup::Found::kClaimed: {
      // Render outside the shard lock: renders are the expensive part, and
      // holding the mutex across one would serialize every same-shard
      // thread.
      const webaudio::RenderJitter jitter{.state = jitter_state};
      // wafp-lint: allow(nonallocating): cold-key render (miss path)
      render_claimed(vector, profile, std::span<const Lookup>(&found, 1),
                     std::span<const webaudio::RenderJitter>(&jitter, 1));
      return found.entry->digest;
    }
    case Lookup::Found::kInFlight:
      break;
  }
  // wafp-lint: allow(nonallocating): dedup wait on a cold key's render
  return await(found, vector, profile, jitter_state);
}

void RenderCache::render_group(const AudioFingerprintVector& vector,
                               const platform::PlatformProfile& profile,
                               std::span<const std::uint32_t> jitter_states) {
  std::vector<Lookup> claimed;
  std::vector<webaudio::RenderJitter> jitters;
  std::vector<std::pair<Lookup, std::uint32_t>> in_flight;
  // Claim every uncached state before waiting on anything, so no caller
  // ever waits while holding claims another caller may be waiting on.
  for (const std::uint32_t state : jitter_states) {
    const Lookup found = lookup(make_render_class_key(vector, profile, state));
    if (found.found == Lookup::Found::kClaimed) {
      claimed.push_back(found);
      jitters.push_back(webaudio::RenderJitter{.state = state});
    } else if (found.found == Lookup::Found::kInFlight) {
      in_flight.emplace_back(found, state);
    }
  }
  if (!claimed.empty()) render_claimed(vector, profile, claimed, jitters);
  for (const auto& [found, state] : in_flight) {
    (void)await(found, vector, profile, state);
  }
}

const util::Digest& RenderCache::await(const Lookup& found,
                                       const AudioFingerprintVector& vector,
                                       const platform::PlatformProfile& profile,
                                       std::uint32_t jitter_state) {
  {
    util::MutexLock lock(found.shard->mu);
    while (found.entry->state == Entry::State::kRendering) {
      found.shard->published.wait(found.shard->mu);
    }
    if (found.entry->state == Entry::State::kReady) return found.entry->digest;
    found.entry->state = Entry::State::kRendering;  // abandoned: claim it
  }
  const webaudio::RenderJitter jitter{.state = jitter_state};
  render_claimed(vector, profile, std::span<const Lookup>(&found, 1),
                 std::span<const webaudio::RenderJitter>(&jitter, 1));
  return found.entry->digest;
}

void RenderCache::render_claimed(
    const AudioFingerprintVector& vector,
    const platform::PlatformProfile& profile, std::span<const Lookup> claimed,
    std::span<const webaudio::RenderJitter> jitters) {
  const auto publish = [](const Lookup& found, Entry::State state,
                          const util::Digest* digest) {
    {
      util::MutexLock lock(found.shard->mu);
      if (digest != nullptr) found.entry->digest = *digest;
      found.entry->state = state;
    }
    found.shard->published.notify_all();
  };

  std::vector<util::Digest> digests(claimed.size());
  const std::uint64_t t0 = metrics_.now_ns();
  try {
    vector.run_states(profile, jitters, digests);
  } catch (...) {
    for (const Lookup& found : claimed) {
      publish(found, Entry::State::kAbandoned, nullptr);
    }
    throw;
  }
  renders_.fetch_add(1, std::memory_order_relaxed);
  metrics_
      .histogram("wafp_render_vector_ns",
                 "Cold-cache render duration per fingerprint vector (ns)",
                 obs::label("vector", vector.name()))
      .observe(metrics_.now_ns() - t0);
  for (std::size_t i = 0; i < claimed.size(); ++i) {
    publish(claimed[i], Entry::State::kReady, &digests[i]);
  }
}

std::size_t RenderCache::entries() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace wafp::fingerprint
