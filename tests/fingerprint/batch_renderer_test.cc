#include "fingerprint/batch_renderer.h"

#include <gtest/gtest.h>

#include "fingerprint/vector.h"
#include "platform/catalog.h"
#include "util/rng.h"

namespace wafp::fingerprint {
namespace {

platform::PlatformProfile profile_with_math(dsp::MathVariant math) {
  const platform::DeviceCatalog catalog;
  util::Rng rng(29);
  platform::PlatformProfile p = catalog.sample_profile(rng);
  p.audio = {};
  p.audio.math = math;
  return p;
}

TEST(BatchRendererTest, DeduplicatesRepeatedRequests) {
  RenderCache cache;
  BatchRenderer batch(cache);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  const auto& vec = audio_vector(VectorId::kDc);
  batch.request(vec, p, 0);
  batch.request(vec, p, 0);
  batch.request(vec, p, 0);
  const BatchRenderStats stats = batch.render_all();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.classes, 1u);
  EXPECT_EQ(stats.archetypes, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(BatchRendererTest, CountsClassesAndArchetypes) {
  RenderCache cache;
  BatchRenderer batch(cache);
  const auto a = profile_with_math(dsp::MathVariant::kPrecise);
  const auto b = profile_with_math(dsp::MathVariant::kSimdAvx2);
  for (const VectorId id : {VectorId::kDc, VectorId::kFft}) {
    batch.request(audio_vector(id), a, 0);
    batch.request(audio_vector(id), b, 0);
  }
  const BatchRenderStats stats = batch.render_all();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.classes, 4u);
  // Two distinct audio stacks -> two archetype groups.
  EXPECT_EQ(stats.archetypes, 2u);
  EXPECT_EQ(cache.entries(), 4u);
}

TEST(BatchRendererTest, WarmsCacheToPureHits) {
  RenderCache cache;
  BatchRenderer batch(cache);
  const auto p = profile_with_math(dsp::MathVariant::kTable);
  for (const VectorId id : audio_vector_ids()) {
    batch.request(audio_vector(id), p, 0);
  }
  const BatchRenderStats stats = batch.render_all();
  EXPECT_EQ(cache.misses(), stats.classes);
  // Every post-batch lookup is a hit and matches the direct render.
  for (const VectorId id : audio_vector_ids()) {
    const auto& vec = audio_vector(id);
    EXPECT_EQ(cache.get(vec, p, 0), vec.run(p, {}));
  }
  EXPECT_EQ(cache.misses(), stats.classes);
  EXPECT_EQ(cache.hits(), audio_vector_ids().size());
}

TEST(BatchRendererTest, RendersOncePerStackVectorGroup) {
  // Six classes in three (stack, vector) groups: the engine renders each
  // group once, while the cache still counts one miss per class — at any
  // thread count.
  const auto a = profile_with_math(dsp::MathVariant::kPrecise);
  const auto b = profile_with_math(dsp::MathVariant::kTable);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RenderCache cache;
    BatchRenderer batch(cache);
    for (const std::uint32_t state : {0u, 1u}) {
      batch.request(audio_vector(VectorId::kDc), a, state);
    }
    for (const std::uint32_t state : {3u, 0u, 2u, 3u}) {
      batch.request(audio_vector(VectorId::kFft), a, state);
    }
    batch.request(audio_vector(VectorId::kFft), b, 1);
    const BatchRenderStats stats = batch.render_all(threads);
    EXPECT_EQ(stats.requests, 7u);
    EXPECT_EQ(stats.classes, 6u);
    EXPECT_EQ(stats.groups, 3u);
    EXPECT_EQ(stats.archetypes, 2u);
    EXPECT_EQ(cache.renders(), stats.groups) << threads << " threads";
    EXPECT_EQ(cache.misses(), stats.classes) << threads << " threads";
    EXPECT_EQ(cache.entries(), stats.classes);
    // Every grouped digest is the solo render of its class.
    for (const std::uint32_t state : {0u, 2u, 3u}) {
      const auto& fft = audio_vector(VectorId::kFft);
      EXPECT_EQ(cache.get(fft, a, state), fft.run(a, {.state = state}));
    }
    EXPECT_EQ(cache.get(audio_vector(VectorId::kFft), b, 1),
              audio_vector(VectorId::kFft).run(b, {.state = 1}));
    EXPECT_EQ(cache.renders(), stats.groups);  // those were hits
  }
}

TEST(BatchRendererTest, RenderAllDrainsThePendingSet) {
  RenderCache cache;
  BatchRenderer batch(cache);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);
  batch.request(audio_vector(VectorId::kDc), p, 0);
  (void)batch.render_all();
  const BatchRenderStats again = batch.render_all();
  EXPECT_EQ(again.requests, 0u);
  EXPECT_EQ(again.classes, 0u);
  EXPECT_EQ(again.archetypes, 0u);
}

TEST(BatchRendererTest, ParallelRenderMatchesSerial) {
  const auto a = profile_with_math(dsp::MathVariant::kPrecise);
  const auto b = profile_with_math(dsp::MathVariant::kSimdSse2);

  RenderCache serial_cache;
  BatchRenderer serial(serial_cache);
  RenderCache parallel_cache;
  BatchRenderer parallel(parallel_cache);
  for (const VectorId id : audio_vector_ids()) {
    for (const auto* p : {&a, &b}) {
      serial.request(audio_vector(id), *p, 1);
      parallel.request(audio_vector(id), *p, 1);
    }
  }
  (void)serial.render_all(1);
  (void)parallel.render_all(4);
  for (const VectorId id : audio_vector_ids()) {
    for (const auto* p : {&a, &b}) {
      EXPECT_EQ(serial_cache.get(audio_vector(id), *p, 1),
                parallel_cache.get(audio_vector(id), *p, 1))
          << to_string(id);
    }
  }
}

// Degenerate hash mapping *every* class to one value: with it, any two
// distinct render classes collide. The renderer must still render both —
// dedup correctness rests on RenderClassKey::operator== (full-tuple
// equality), never on hash uniqueness.
struct ConstantHash {
  std::size_t operator()(const RenderClassKey&) const noexcept { return 7; }
};

TEST(BatchRendererTest, HashCollisionsNeverDropAClass) {
  // Regression: the renderer used to key its pending set by a bare 64-bit
  // fnv1a64_mix value, so two distinct (stack, vector, jitter) classes
  // landing on one hash silently dropped a render.
  RenderCache cache;
  BasicBatchRenderer<ConstantHash> batch(cache);
  const auto a = profile_with_math(dsp::MathVariant::kPrecise);
  const auto b = profile_with_math(dsp::MathVariant::kTable);
  // Distinct stacks, distinct vectors, distinct jitters: every pair of
  // these classes collides under ConstantHash.
  batch.request(audio_vector(VectorId::kDc), a, 0);
  batch.request(audio_vector(VectorId::kDc), b, 0);
  batch.request(audio_vector(VectorId::kFft), a, 0);
  batch.request(audio_vector(VectorId::kDc), a, 5);
  const BatchRenderStats stats = batch.render_all();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.classes, 4u);  // nothing merged, nothing dropped
  EXPECT_EQ(stats.groups, 3u);   // DC on `a` carries states 0 and 5
  EXPECT_EQ(cache.entries(), 4u);
  // True duplicates still collapse even when everything shares one hash.
  batch.request(audio_vector(VectorId::kDc), a, 0);
  batch.request(audio_vector(VectorId::kDc), a, 0);
  const BatchRenderStats again = batch.render_all();
  EXPECT_EQ(again.classes, 1u);
  EXPECT_EQ(cache.entries(), 4u);  // pure hit, no new class
}

TEST(BatchRendererTest, EmptyRenderAllIsANoOp) {
  RenderCache cache;
  BatchRenderer batch(cache);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const BatchRenderStats stats = batch.render_all(threads);
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_EQ(stats.classes, 0u);
    EXPECT_EQ(stats.archetypes, 0u);
  }
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(BatchRendererTest, StatsResetAcrossRequestRenderCycles) {
  RenderCache cache;
  BatchRenderer batch(cache);
  const auto p = profile_with_math(dsp::MathVariant::kPrecise);

  batch.request(audio_vector(VectorId::kDc), p, 0);
  batch.request(audio_vector(VectorId::kDc), p, 0);
  const BatchRenderStats first = batch.render_all();
  EXPECT_EQ(first.requests, 2u);
  EXPECT_EQ(first.classes, 1u);

  // A second cycle counts only its own requests; the request tally must
  // not leak across render_all() calls.
  batch.request(audio_vector(VectorId::kFft), p, 0);
  const BatchRenderStats second = batch.render_all();
  EXPECT_EQ(second.requests, 1u);
  EXPECT_EQ(second.classes, 1u);
  EXPECT_EQ(second.archetypes, 1u);

  // Re-requesting an already-rendered class is a new class for *this*
  // cycle (the pending set drained), served as a cache hit.
  const std::size_t misses_before = cache.misses();
  batch.request(audio_vector(VectorId::kDc), p, 0);
  const BatchRenderStats third = batch.render_all();
  EXPECT_EQ(third.classes, 1u);
  EXPECT_EQ(cache.misses(), misses_before);  // hit: no re-render
}

}  // namespace
}  // namespace wafp::fingerprint
