// Performance microbenchmarks (google-benchmark): the engine's hot paths
// and the §3.2 scalability claim for the collation graph — the paper argues
// the fingerprint graph "scales well to even billions of users" because
// updates are polylogarithmic; BM_FingerprintGraphInsert measures the
// amortized insert cost at growing scales.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "collation/disjoint_set.h"
#include "collation/fingerprint_graph.h"
#include "dsp/fft.h"
#include "dsp/math_library.h"
#include "dsp/simd.h"
#include "fingerprint/render_cache.h"
#include "fingerprint/vector.h"
#include "platform/catalog.h"
#include "platform/canvas_sim.h"
#include "platform/synthetic_vectors.h"
#include "study/dataset.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "webaudio/dynamics_compressor_node.h"
#include "webaudio/offline_audio_context.h"
#include "webaudio/oscillator_node.h"

namespace {

using namespace wafp;

void BM_Sha256(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_FftForward(benchmark::State& state) {
  const auto variant = static_cast<dsp::FftVariant>(state.range(0));
  const auto math = dsp::make_math_library(dsp::MathVariant::kPrecise);
  const auto engine = dsp::make_fft_engine(variant, math);
  const std::size_t n = 2048;
  std::vector<float> re(n), im(n);
  util::Rng rng(1);
  for (auto& v : re) v = static_cast<float>(rng.next_double());
  std::vector<float> work_re(n), work_im(n);
  for (auto _ : state) {
    work_re = re;
    work_im.assign(n, 0.0f);
    engine->forward(std::span<float>(work_re), std::span<float>(work_im));
    benchmark::DoNotOptimize(work_re.data());
  }
  state.SetLabel(std::string(dsp::to_string(variant)) + " n=2048 f32");
}
BENCHMARK(BM_FftForward)
    ->Arg(static_cast<int>(dsp::FftVariant::kRadix2))
    ->Arg(static_cast<int>(dsp::FftVariant::kRadix4))
    ->Arg(static_cast<int>(dsp::FftVariant::kSplitRadix))
    ->Arg(static_cast<int>(dsp::FftVariant::kBluestein));

void BM_MathVariantSin(benchmark::State& state) {
  const auto variant = static_cast<dsp::MathVariant>(state.range(0));
  const auto math = dsp::make_math_library(variant);
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math->sin(x));
    x += 0.37;
    if (x > 100.0) x = 0.1;
  }
  state.SetLabel(std::string(dsp::to_string(variant)));
}
BENCHMARK(BM_MathVariantSin)
    ->Arg(static_cast<int>(dsp::MathVariant::kPrecise))
    ->Arg(static_cast<int>(dsp::MathVariant::kFdlibm))
    ->Arg(static_cast<int>(dsp::MathVariant::kFastPoly))
    ->Arg(static_cast<int>(dsp::MathVariant::kTable));

void BM_OscillatorRender(benchmark::State& state) {
  for (auto _ : state) {
    webaudio::OfflineAudioContext ctx(1, 44100, 44100.0,
                                      webaudio::EngineConfig::reference());
    auto& osc = ctx.create<webaudio::OscillatorNode>(
        webaudio::OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    osc.connect(ctx.destination());
    osc.start(0.0);
    benchmark::DoNotOptimize(ctx.start_rendering());
  }
  state.SetLabel("1 s triangle @ 44.1 kHz");
}
BENCHMARK(BM_OscillatorRender);

void BM_CompressorRender(benchmark::State& state) {
  for (auto _ : state) {
    webaudio::OfflineAudioContext ctx(1, 44100, 44100.0,
                                      webaudio::EngineConfig::reference());
    auto& osc = ctx.create<webaudio::OscillatorNode>(
        webaudio::OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    auto& comp = ctx.create<webaudio::DynamicsCompressorNode>();
    osc.connect(comp);
    comp.connect(ctx.destination());
    osc.start(0.0);
    benchmark::DoNotOptimize(ctx.start_rendering());
  }
  state.SetLabel("1 s osc->compressor @ 44.1 kHz");
}
BENCHMARK(BM_CompressorRender);

// --- SimdOps kernel-table benches (scalar vs SSE2 vs AVX2) ---------------
//
// Each case times the batch kernels one node's hot loop actually issues per
// 128-frame quantum, through the table of the backend in Arg(0).
// simd_ops_for() falls back to scalar when the host can't execute the
// requested backend, so the full Arg sweep is safe everywhere; the label
// reports the table that really ran. The JSON artifact with per-kernel
// speedups lives in bench/simd_microbench (BENCH_simd.json).

const dsp::SimdOps& bench_ops(benchmark::State& state) {
  const auto want = static_cast<dsp::SimdBackend>(state.range(0));
  const dsp::SimdOps& ops = dsp::simd_ops_for(want);
  state.SetLabel(std::string(dsp::to_string(ops.backend)));
  return ops;
}

void BM_SimdGainQuantum(benchmark::State& state) {
  // GainNode inner loop: out = in * per-frame gain over one quantum.
  const dsp::SimdOps& ops = bench_ops(state);
  constexpr std::size_t n = 128;
  std::vector<float> out(n), in(n, 0.5f), gain(n, 0.7f);
  for (auto _ : state) {
    ops.vmul_f32(out.data(), in.data(), gain.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimdGainQuantum)
    ->Arg(static_cast<int>(dsp::SimdBackend::kScalar))
    ->Arg(static_cast<int>(dsp::SimdBackend::kSse2))
    ->Arg(static_cast<int>(dsp::SimdBackend::kAvx2));

void BM_SimdCompressorDetect(benchmark::State& state) {
  // DynamicsCompressorNode gain computer stage 1: per-frame abs-max
  // detection across two channels.
  const dsp::SimdOps& ops = bench_ops(state);
  constexpr std::size_t n = 128;
  std::vector<float> acc(n), left(n, 0.25f), right(n, -0.75f);
  for (auto _ : state) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    ops.vabs_max_f32(acc.data(), left.data(), n);
    ops.vabs_max_f32(acc.data(), right.data(), n);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_SimdCompressorDetect)
    ->Arg(static_cast<int>(dsp::SimdBackend::kScalar))
    ->Arg(static_cast<int>(dsp::SimdBackend::kSse2))
    ->Arg(static_cast<int>(dsp::SimdBackend::kAvx2));

void BM_SimdAnalyserMagDb(benchmark::State& state) {
  // AnalyserNode post-FFT pipeline: windowed copy-in, magnitude + scale,
  // smoothing — everything around the FFT call itself.
  const dsp::SimdOps& ops = bench_ops(state);
  constexpr std::size_t n = 2048;
  std::vector<double> block(n, 0.3), window(n, 0.5);
  std::vector<float> windowed(n), re(n, 0.4f), im(n, -0.2f);
  std::vector<float> mag(n / 2), smoothed(n / 2, 0.1f);
  for (auto _ : state) {
    ops.vwindow_f32(windowed.data(), block.data(), window.data(), n);
    ops.vmag_f32(mag.data(), re.data(), im.data(), 1.0f / n, true, n / 2);
    ops.vsmooth_f32(smoothed.data(), mag.data(), 0.8f, 0.2f, n / 2);
    benchmark::DoNotOptimize(smoothed.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimdAnalyserMagDb)
    ->Arg(static_cast<int>(dsp::SimdBackend::kScalar))
    ->Arg(static_cast<int>(dsp::SimdBackend::kSse2))
    ->Arg(static_cast<int>(dsp::SimdBackend::kAvx2));

void BM_SimdTrigBatch(benchmark::State& state) {
  // The fma-scheme transcendental batch behind kSimdSse2/kSimdAvx2 math
  // variants (oscillator/periodic-wave table builds, dB conversions).
  const dsp::SimdOps& ops = bench_ops(state);
  constexpr std::size_t n = 128;
  std::vector<double> x(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = -3.0 + 6.0 * static_cast<double>(i) / n;
  }
  for (auto _ : state) {
    ops.vsin_fma(x.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimdTrigBatch)
    ->Arg(static_cast<int>(dsp::SimdBackend::kScalar))
    ->Arg(static_cast<int>(dsp::SimdBackend::kSse2))
    ->Arg(static_cast<int>(dsp::SimdBackend::kAvx2));

const platform::PlatformProfile& bench_profile() {
  static const platform::PlatformProfile profile = [] {
    platform::DeviceCatalog catalog;
    util::Rng rng(7);
    return catalog.sample_profile(rng);
  }();
  return profile;
}

void BM_FingerprintVector(benchmark::State& state) {
  const auto id = static_cast<fingerprint::VectorId>(state.range(0));
  const auto& vector = fingerprint::audio_vector(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vector.run(bench_profile(), {}));
  }
  state.SetLabel(std::string(to_string(id)));
}
BENCHMARK(BM_FingerprintVector)
    ->Arg(static_cast<int>(fingerprint::VectorId::kDc))
    ->Arg(static_cast<int>(fingerprint::VectorId::kFft))
    ->Arg(static_cast<int>(fingerprint::VectorId::kHybrid))
    ->Arg(static_cast<int>(fingerprint::VectorId::kMergedSignals))
    ->Arg(static_cast<int>(fingerprint::VectorId::kAm));

void BM_CanvasFingerprint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(platform::canvas_fingerprint(bench_profile()));
  }
}
BENCHMARK(BM_CanvasFingerprint);

void BM_FingerprintGraphInsert(benchmark::State& state) {
  // §3.2 scalability: amortized cost of one observation insert at scale u.
  const auto users = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    collation::FingerprintGraph graph;
    util::Rng rng(3);
    state.ResumeTiming();
    for (std::uint32_t u = 0; u < users; ++u) {
      // Two platform-shared fingerprints + one unique per user.
      graph.add_observation(u, util::sha256("platform-" +
                                            std::to_string(u % 97)));
      graph.add_observation(
          u, util::sha256("state-" + std::to_string(u % 97) + "-" +
                          std::to_string(rng.next_below(4))));
      graph.add_observation(u, util::sha256("unique-" + std::to_string(u)));
    }
    benchmark::DoNotOptimize(graph.cluster_count());
  }
  state.SetItemsProcessed(state.iterations() * users * 3);
}
BENCHMARK(BM_FingerprintGraphInsert)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_FingerprintGraphQuery(benchmark::State& state) {
  collation::FingerprintGraph graph;
  for (std::uint32_t u = 0; u < 100000; ++u) {
    graph.add_observation(u,
                          util::sha256("platform-" + std::to_string(u % 97)));
    graph.add_observation(u, util::sha256("unique-" + std::to_string(u)));
  }
  std::uint32_t a = 0, b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.same_cluster(a, b));
    a = (a + 37) % 100000;
    b = (b + 101) % 100000;
  }
  state.SetLabel("u=100k connectivity query");
}
BENCHMARK(BM_FingerprintGraphQuery);

void BM_DisjointSetUnion(benchmark::State& state) {
  // The union-find under both collation graphs, insert-only.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(43);
  for (auto _ : state) {
    state.PauseTiming();
    collation::DisjointSet ds(n);
    state.ResumeTiming();
    for (std::uint32_t i = 0; i < n; ++i) {
      ds.unite(rng.next_below(n), rng.next_below(n));
    }
    benchmark::DoNotOptimize(ds.component_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DisjointSetUnion)->Arg(100000);

void BM_RenderCacheHit(benchmark::State& state) {
  // Hot-path lookup with the packed struct key: one class_hash over POD
  // fields instead of the old heap-allocated string key build per call.
  fingerprint::RenderCache cache;
  const auto& vec = fingerprint::audio_vector(fingerprint::VectorId::kHybrid);
  (void)cache.get(vec, bench_profile(), 0);  // warm: first call renders
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(vec, bench_profile(), 0));
  }
  state.SetLabel("sharded cache, warm key");
}
BENCHMARK(BM_RenderCacheHit);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  // Dispatch + join overhead of one parallel_for over trivial work.
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> out(4096);
  for (auto _ : state) {
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = i * 2654435761u;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("threads=" + std::to_string(pool.thread_count()));
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DatasetCollect(benchmark::State& state) {
  // Serial-vs-parallel end-to-end collection; the full sweep with per-stage
  // analysis timings lives in bench/parallel_pipeline (BENCH_parallel.json).
  study::StudyConfig cfg;
  cfg.num_users = 150;
  cfg.iterations = 10;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(study::Dataset::collect(cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.num_users));
  state.SetLabel("150 users x 10 iters, threads=" +
                 std::to_string(cfg.threads));
}
BENCHMARK(BM_DatasetCollect)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
