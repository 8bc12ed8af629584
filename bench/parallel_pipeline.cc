// Serial-vs-parallel end-to-end study pipeline: times collection plus the
// Table 1 / Table 2 / Fig 5 / Table 6 analyses at a sweep of thread counts
// and emits machine-readable BENCH_parallel.json so successive PRs have a
// perf trajectory to compare against.
//
//   ./build/bench/parallel_pipeline [--smoke] [--out FILE]
//                                   [--users N] [--iters K]
//
// --smoke shrinks the study and the thread sweep for CI. The run also
// cross-checks the determinism contract: every thread count must produce a
// dataset with the same digest checksum as the serial run, from the same
// number of engine and canvas renders. render_pass_share (engine renders /
// render classes) shows how many classes each (stack, vector) render
// serves, and canvas_renders counts the canvas static-vector memo misses.
// fig5_ms_per_pair (serial Fig. 5 time per AMI pair evaluated) measures the
// Fig. 5 analysis alone; fig5_share (its part of the widest run) also moves
// with collect and is informational.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dsp/simd.h"
#include "fingerprint/vector_registry.h"
#include "obs/metrics.h"
#include "study/dataset.h"
#include "study/experiments.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace {

using namespace wafp;
using study::Dataset;
using study::StudyConfig;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order-fixed FNV over every audio digest — the cheap bit-identity witness
/// for the parallel-vs-serial parity check.
std::uint64_t dataset_checksum(const Dataset& ds) {
  std::uint64_t h = util::fnv1a64("dataset");
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    const auto audio_ids =
        fingerprint::VectorRegistry::instance().audio_ids();
    for (const fingerprint::VectorId id : audio_ids) {
      for (const util::Digest& d : ds.audio_observations(u, id)) {
        h = util::fnv1a64_mix(h, d.prefix64());
      }
    }
  }
  return h;
}

struct StageTimes {
  double collect = 0.0;
  double table1 = 0.0;
  double table2 = 0.0;
  double fig5 = 0.0;
  double table6 = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t render_passes = 0;   // engine renders during collect
  std::uint64_t render_classes = 0;  // (stack, vector, jitter) classes
  std::uint64_t canvas_renders = 0;  // canvas static-memo misses
  std::uint64_t fig5_pairs = 0;      // AMI pairs Fig. 5 evaluates

  [[nodiscard]] double total() const {
    return collect + table1 + table2 + fig5 + table6;
  }
};

StageTimes run_pipeline(StudyConfig cfg, std::size_t threads) {
  cfg.threads = threads;
  util::ThreadPool::set_shared_threads(threads);
  StageTimes t;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter& renders = registry.counter("wafp_render_total");
  obs::Counter& classes = registry.counter("wafp_cache_misses_total");
  obs::Counter& canvases = registry.counter(
      "wafp_static_memo_misses_total", {},
      obs::label("vector", to_string(fingerprint::VectorId::kCanvas)));
  const std::uint64_t renders_before = renders.value();
  const std::uint64_t classes_before = classes.value();
  const std::uint64_t canvases_before = canvases.value();
  auto start = Clock::now();
  const Dataset ds = Dataset::collect(cfg);
  t.collect = seconds_since(start);
  t.checksum = dataset_checksum(ds);
  t.render_passes = renders.value() - renders_before;
  t.render_classes = classes.value() - classes_before;
  t.canvas_renders = canvases.value() - canvases_before;

  start = Clock::now();
  volatile std::size_t sink = study::table1_stability(ds).size();
  t.table1 = seconds_since(start);

  start = Clock::now();
  const auto audio_ids =
      fingerprint::VectorRegistry::instance().audio_ids();
  for (const fingerprint::VectorId id : audio_ids) {
    sink = sink + static_cast<std::size_t>(
                      study::vector_diversity(ds, id).distinct);
  }
  sink = sink + static_cast<std::size_t>(
                    study::combined_audio_diversity(ds).distinct);
  t.table2 = seconds_since(start);

  start = Clock::now();
  const std::size_t max_s = cfg.iterations >= 15 ? 15 : cfg.iterations / 2;
  for (std::size_t s = 1; s <= max_s; ++s) {
    const auto audio_ids =
        fingerprint::VectorRegistry::instance().audio_ids();
    for (const fingerprint::VectorId id : audio_ids) {
      sink = sink + static_cast<std::size_t>(
                        1000.0 * study::cluster_agreement(ds, id, s).mean_ami);
      // cluster_agreement compares every pair of its iterations / s
      // disjoint subsets.
      const std::size_t subsets = cfg.iterations / s;
      if (subsets >= 2) t.fig5_pairs += subsets * (subsets - 1) / 2;
    }
  }
  t.fig5 = seconds_since(start);

  start = Clock::now();
  for (const std::size_t s : {cfg.iterations / 2u, cfg.iterations / 3u, 3u}) {
    if (s == 0) continue;
    const auto audio_ids =
        fingerprint::VectorRegistry::instance().audio_ids();
    for (const fingerprint::VectorId id : audio_ids) {
      sink = sink + static_cast<std::size_t>(
                        1000.0 * study::fingerprint_match_score(ds, id, s));
    }
  }
  t.table6 = seconds_since(start);
  (void)sink;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  StudyConfig cfg;
  std::string out_path = "BENCH_parallel.json";
  std::vector<std::size_t> thread_sweep = {1, 2, 4, 8};
  bool smoke = false;

  util::FlagParser flags(
      "parallel_pipeline",
      "Serial-vs-parallel study pipeline benchmark (BENCH_parallel.json).");
  flags.flag("--smoke", &smoke, "CI-sized study and a 1/2-thread sweep");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--users", &cfg.num_users, "simulated users");
  flags.flag("--iters", &cfg.iterations, "iterations per user and vector");
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (cfg.num_users == 0 || cfg.iterations == 0) {
    std::fprintf(stderr,
                 "parallel_pipeline: --users and --iters must be >= 1\n");
    return 2;
  }
  if (smoke) {
    cfg.num_users = 120;
    cfg.iterations = 6;
    thread_sweep = {1, 2};
  }

  // hardware_concurrency() is the honest capacity figure for judging the
  // sweep: a "speedup" measured with more software threads than hardware
  // threads is timeslicing noise, not parallelism. 0 means unknown.
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf(
      "parallel_pipeline: %zu users x %u iterations, hardware=%u "
      "(default pool=%zu)\n",
      cfg.num_users, cfg.iterations, hardware, util::default_thread_count());

  std::vector<std::pair<std::size_t, StageTimes>> runs;
  for (const std::size_t threads : thread_sweep) {
    const StageTimes t = run_pipeline(cfg, threads);
    const bool oversubscribed = hardware != 0 && threads > hardware;
    std::printf(
        "  threads=%zu%s  collect=%.3fs table1=%.3fs table2=%.3fs "
        "fig5=%.3fs table6=%.3fs total=%.3fs checksum=%016llx "
        "renders=%llu/%llu classes canvas_renders=%llu\n",
        threads, oversubscribed ? " (oversubscribed)" : "", t.collect,
        t.table1, t.table2, t.fig5, t.table6, t.total(),
        static_cast<unsigned long long>(t.checksum),
        static_cast<unsigned long long>(t.render_passes),
        static_cast<unsigned long long>(t.render_classes),
        static_cast<unsigned long long>(t.canvas_renders));
    runs.emplace_back(threads, t);
  }

  bool parity_ok = true;
  bool renders_equal = true;
  for (const auto& [threads, t] : runs) {
    if (t.checksum != runs.front().second.checksum) parity_ok = false;
    if (t.render_passes != runs.front().second.render_passes ||
        t.render_classes != runs.front().second.render_classes ||
        t.canvas_renders != runs.front().second.canvas_renders) {
      renders_equal = false;
    }
  }
  // Engine renders per render class: one render per (stack, vector) group
  // serves every jitter state of that group, so this sits well below 1.
  const StageTimes& serial = runs.front().second;
  const double render_pass_share =
      serial.render_classes > 0
          ? static_cast<double>(serial.render_passes) /
                static_cast<double>(serial.render_classes)
          : 0.0;
  const double speedup =
      runs.back().second.total() > 0.0
          ? runs.front().second.total() / runs.back().second.total()
          : 0.0;
  // The headline speedup compares the max-thread run against serial; it is
  // only a parallelism measurement when that run actually had a core per
  // thread (and the host reported its core count at all).
  const bool speedup_valid =
      hardware != 0 && runs.back().first <= hardware;
  // Effective parallelism: the best serial-vs-N speedup among the runs that
  // had a core per thread. Always well-defined — on a 1-core host only the
  // serial run qualifies and the figure is 1.0, which is the honest answer
  // (CI gates on this key with a floor that is skipped on such hosts).
  double effective_parallelism = 1.0;
  for (const auto& [threads, t] : runs) {
    if (hardware != 0 && threads > hardware) continue;
    if (t.total() > 0.0) {
      effective_parallelism = std::max(
          effective_parallelism, runs.front().second.total() / t.total());
    }
  }
  // Serial Fig. 5 (cluster agreement, i.e. AMI) time per AMI pair: its
  // denominator is fixed by the study shape, so only Fig. 5 itself moves it
  // and CI can put a ceiling on it. fig5_share, the widest run's share
  // spent in Fig. 5, also rises whenever collect gets faster.
  const double fig5_ms_per_pair =
      serial.fig5_pairs > 0
          ? 1000.0 * serial.fig5 / static_cast<double>(serial.fig5_pairs)
          : 0.0;
  const StageTimes& widest = runs.back().second;
  const double fig5_share =
      widest.total() > 0.0 ? widest.fig5 / widest.total() : 0.0;
  std::printf(
      "  parity=%s  renders=%s  speedup(%zut vs 1t)=%.2fx%s  "
      "effective=%.2fx  fig5_ms_per_pair=%.4f  fig5_share=%.4f  "
      "render_pass_share=%.4f\n",
      parity_ok ? "ok" : "MISMATCH",
      renders_equal ? "equal" : "DIFFER across thread counts",
      runs.back().first, speedup,
      speedup_valid ? "" : " [invalid: oversubscribed host]",
      effective_parallelism, fig5_ms_per_pair, fig5_share,
      render_pass_share);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"parallel_pipeline\",\n");
  std::fprintf(out, "  \"users\": %zu,\n", cfg.num_users);
  std::fprintf(out, "  \"iterations\": %u,\n", cfg.iterations);
  std::fprintf(out, "  \"hardware_threads\": %zu,\n",
               util::default_thread_count());
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hardware);
  std::fprintf(out, "  \"simd_backend\": \"%s\",\n",
               std::string(dsp::to_string(dsp::active_simd_backend())).c_str());
  std::fprintf(
      out, "  \"sha256_kernel\": \"%s\",\n",
      std::string(util::Sha256::kernel_name(util::Sha256::active_kernel()))
          .c_str());
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"parity_ok\": %s,\n", parity_ok ? "true" : "false");
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [threads, t] = runs[i];
    const bool oversubscribed = hardware != 0 && threads > hardware;
    std::fprintf(out,
                 "    {\"threads\": %zu, \"oversubscribed\": %s, "
                 "\"collect_s\": %.6f, "
                 "\"table1_s\": %.6f, \"table2_s\": %.6f, \"fig5_s\": %.6f, "
                 "\"table6_s\": %.6f, \"total_s\": %.6f, "
                 "\"render_passes\": %llu, \"render_classes\": %llu, "
                 "\"canvas_renders\": %llu, "
                 "\"dataset_checksum\": \"%016llx\"}%s\n",
                 threads, oversubscribed ? "true" : "false", t.collect,
                 t.table1, t.table2, t.fig5, t.table6, t.total(),
                 static_cast<unsigned long long>(t.render_passes),
                 static_cast<unsigned long long>(t.render_classes),
                 static_cast<unsigned long long>(t.canvas_renders),
                 static_cast<unsigned long long>(t.checksum),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_max_threads_vs_serial\": %.4f,\n", speedup);
  std::fprintf(out, "  \"speedup_valid\": %s,\n",
               speedup_valid ? "true" : "false");
  std::fprintf(out, "  \"effective_parallelism\": %.4f,\n",
               effective_parallelism);
  std::fprintf(out, "  \"fig5_pairs\": %llu,\n",
               static_cast<unsigned long long>(serial.fig5_pairs));
  std::fprintf(out, "  \"fig5_ms_per_pair\": %.6f,\n", fig5_ms_per_pair);
  std::fprintf(out, "  \"fig5_share\": %.6f,\n", fig5_share);
  std::fprintf(out, "  \"render_passes\": %llu,\n",
               static_cast<unsigned long long>(serial.render_passes));
  std::fprintf(out, "  \"canvas_renders\": %llu,\n",
               static_cast<unsigned long long>(serial.canvas_renders));
  std::fprintf(out, "  \"render_classes\": %llu,\n",
               static_cast<unsigned long long>(serial.render_classes));
  std::fprintf(out, "  \"render_pass_share\": %.6f,\n", render_pass_share);
  // Per-stage observability block: the same registry the pipeline recorded
  // into while running (render/cache/collect histograms and counters).
  std::fprintf(out, "  \"metrics\": %s\n",
               wafp::obs::MetricsRegistry::global().render_json().c_str());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return parity_ok && renders_equal ? 0 : 1;
}
