// BatchRenderer: archetype-grouped prewarm of the render cache.
//
// A population collect needs one digest per distinct (audio stack, vector,
// jitter state) class, but the natural user-major iteration order discovers
// those classes scattered: cold renders interleave with hits, and parallel
// workers pile onto the same cold keys (dedup waits). The batch path
// inverts the order — callers enqueue every (vector, profile, jitter)
// request up front, the renderer deduplicates them into classes and
// gathers the classes into (stack, vector) groups, sorted by stack
// archetype. Each group is one RenderCache::render_group() call: one
// engine pass yields the digests of all of the group's jitter states, so a
// collect performs one render per group, not per class (at 2093 users, 882
// groups carry 2375 classes). Grouping by archetype keeps one platform's
// engine parts (math library, FFT twiddles, wavetable cache — see
// PlatformProfile::make_engine_config) hot across consecutive renders, and
// parallel_for hands out whole groups, so serial and parallel prewarm
// perform the same renders. After render_all() the user-major pass is pure
// cache hits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "fingerprint/render_cache.h"
#include "util/thread_pool.h"

namespace wafp::fingerprint {

struct BatchRenderStats {
  std::size_t requests = 0;    // request() calls seen
  std::size_t classes = 0;     // distinct render classes enqueued
  std::size_t groups = 0;      // (stack, vector) groups: one render each
  std::size_t archetypes = 0;  // distinct stack archetypes among them
};

/// Dedup is keyed by the full RenderClassKey — exact stack equality, not a
/// 64-bit mix — so two distinct classes whose hashes collide still both
/// render (they merely share a bucket). `ClassHash` is a template parameter
/// only so a regression test can force every class onto one hash value and
/// prove that property; production code uses the BatchRenderer alias below.
template <typename ClassHash = RenderClassKeyHash>
class BasicBatchRenderer {
 public:
  explicit BasicBatchRenderer(RenderCache& cache) : cache_(cache) {}

  /// Record that the digest of `vector` on `profile`'s stack with
  /// `jitter_state` will be needed. Duplicate classes collapse to one.
  ///
  /// Lifetime: the renderer stores pointers, not copies — `vector` and
  /// `profile` must stay alive and unmoved until the render_all() that
  /// drains this request. Vectors from audio_vector()/VectorRegistry are
  /// stateless process-lifetime singletons, so only `profile` needs care.
  void request(const AudioFingerprintVector& vector,
               const platform::PlatformProfile& profile,
               std::uint32_t jitter_state) {
    ++requests_;
    pending_.try_emplace(make_render_class_key(vector, profile, jitter_state),
                         Request{&vector, &profile});
  }

  /// Render every pending class through the cache, one render_group() per
  /// (stack, vector) group, groups ordered by stack archetype. `threads`:
  /// 1 = serial, 0 = util::default_thread_count(). Safe to call repeatedly;
  /// each call drains the pending set.
  BatchRenderStats render_all(std::size_t threads = 1) {
    struct PendingClass {
      RenderClassKey key;
      Request req;
    };
    std::vector<PendingClass> classes;
    classes.reserve(pending_.size());
    for (const auto& [key, req] : pending_) {
      classes.push_back(PendingClass{key, req});
    }
    pending_.clear();

    // Archetype-major order: consecutive renders share engine parts, and
    // the contiguous chunks parallel_for hands out stay within few
    // archetypes.
    std::sort(classes.begin(), classes.end(),
              [](const PendingClass& a, const PendingClass& b) {
                if (a.key.stack_hash != b.key.stack_hash) {
                  return a.key.stack_hash < b.key.stack_hash;
                }
                if (a.key.vector != b.key.vector) {
                  return a.key.vector < b.key.vector;
                }
                return a.key.jitter < b.key.jitter;
              });

    // Group boundaries: consecutive classes of one (stack, vector). The
    // sort orders by stack hash, so two distinct stacks sharing a hash can
    // interleave and split a group; that costs a render, never a class.
    std::vector<std::size_t> group_begin;
    std::vector<std::uint32_t> states;
    states.reserve(classes.size());
    BatchRenderStats stats;
    stats.requests = requests_;
    stats.classes = classes.size();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      const RenderClassKey& key = classes[i].key;
      const RenderClassKey* prev = i == 0 ? nullptr : &classes[i - 1].key;
      if (prev == nullptr || key.stack_hash != prev->stack_hash) {
        ++stats.archetypes;
      }
      if (prev == nullptr || key.vector != prev->vector ||
          key.stack != prev->stack) {
        group_begin.push_back(i);
      }
      states.push_back(key.jitter);
    }
    stats.groups = group_begin.size();
    group_begin.push_back(classes.size());
    requests_ = 0;

    auto render_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t g = begin; g < end; ++g) {
        const std::size_t first = group_begin[g];
        const Request& req = classes[first].req;
        cache_.render_group(
            *req.vector, *req.profile,
            std::span<const std::uint32_t>(states).subspan(
                first, group_begin[g + 1] - first));
      }
    };
    if (threads == 1 || stats.groups == 0) {
      render_range(0, stats.groups);
    } else {
      util::ThreadPool pool(threads);
      pool.parallel_for(stats.groups, render_range);
    }
    return stats;
  }

 private:
  struct Request {
    const AudioFingerprintVector* vector;
    const platform::PlatformProfile* profile;
  };

  RenderCache& cache_;
  std::unordered_map<RenderClassKey, Request, ClassHash> pending_;
  std::size_t requests_ = 0;
};

using BatchRenderer = BasicBatchRenderer<>;

extern template class BasicBatchRenderer<RenderClassKeyHash>;

}  // namespace wafp::fingerprint
