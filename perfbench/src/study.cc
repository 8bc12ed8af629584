// Workload `study`: the paper pipeline a reproducer runs. Each pass
// collects a fresh dataset (Dataset::collect builds a new render cache, so
// every render class is cold), saves it as CSV, reloads it, and computes
// Table 1, Table 2, Fig. 5, Fig. 9 and Table 6 on the reloaded copy.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/ami.h"
#include "bench.h"
#include "fingerprint/vector_registry.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "study/dataset.h"
#include "study/experiments.h"
#include "trace.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using wafp::fingerprint::VectorId;
using wafp::study::Dataset;

// Sized so one pass takes a few seconds on two threads: the paper's shape
// (30 iterations, all 7 audio vectors plus the static vectors) on a smaller
// population.
constexpr std::size_t kUsers = 100;
constexpr std::uint32_t kIterations = 30;
constexpr std::size_t kFig5MaxS = 15;
constexpr std::size_t kTable6S[] = {15, 10, 3};
// Populations with a recorded reference (reference/study_pop<P>.txt). The
// untraced run studies every one of them, one pass each, so every seed does
// the same work (populations differ in cost by a fifth either way) and the
// pooled 8 x 136 table/figure calls have a p99 with ten samples beyond it.
constexpr std::uint64_t kPopulations = 8;
constexpr int kPasses = static_cast<int>(kPopulations);
// Set-ups timed before each pass: spread over the run, so their median does
// not hang on the host's speed at one moment.
constexpr int kSetupsPerPass = 2;
// Relative tolerance for analysis values (the repository's pinned
// kMetricRelTolerance).
constexpr double kMetricRelTolerance = 1e-9;

bool metric_close(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kMetricRelTolerance * scale;
}

std::span<const VectorId> audio_ids() {
  return wafp::fingerprint::VectorRegistry::instance().audio_ids();
}

/// Order-fixed FNV over every audio and static digest.
std::uint64_t dataset_checksum(const Dataset& ds) {
  std::uint64_t h = wafp::util::fnv1a64("perfbench-dataset");
  for (std::size_t u = 0; u < ds.num_users(); ++u) {
    for (const VectorId id : audio_ids()) {
      for (const wafp::util::Digest& d : ds.audio_observations(u, id)) {
        h = wafp::util::fnv1a64_mix(h, d.prefix64());
      }
    }
    for (const VectorId id :
         wafp::fingerprint::VectorRegistry::instance().static_ids()) {
      h = wafp::util::fnv1a64_mix(h, ds.static_observation(u, id).prefix64());
    }
  }
  return h;
}

/// Named table/figure values of one pass, in a fixed order.
using Values = std::vector<std::pair<std::string, double>>;

/// Pass k of a run with seed n studies recorded population (n + k) mod
/// kPopulations: the seed sets the order, and every pass has a reference to
/// be checked against.
std::uint64_t population_of(std::uint64_t seed, int pass) {
  return (seed % kPopulations + static_cast<std::uint64_t>(pass)) %
         kPopulations;
}

/// Population p is drawn with population seed 64 * p, the seed its
/// reference was recorded with.
wafp::study::StudyConfig study_config(const Options& options,
                                      std::uint64_t population) {
  wafp::study::StudyConfig cfg;
  cfg.num_users = kUsers;
  cfg.iterations = kIterations;
  cfg.seed = population * 64;
  cfg.threads = options.threads;
  return cfg;
}

struct PassTimes {
  double total_s = 0.0;
  double collect_s = 0.0;
  Samples report_ms;  // one sample per table/figure computation
};

/// Time one program call as a report sample (and a span when tracing).
template <class F>
void timed_report(const char* span, PassTimes& times, F&& f) {
  const trace::Span s(span);
  const Stopwatch sw;
  f();
  times.report_ms.add(sw.seconds() * 1e3);
}

/// Tables and figures on a loaded dataset; every program call is one
/// report sample.
Values analyse(const Dataset& ds, PassTimes& times) {
  Values v;
  const auto name = [](VectorId id) {
    return std::string(wafp::fingerprint::to_string(id));
  };
  {
    const trace::Span stage("analysis.table1");
    std::vector<wafp::study::StabilityRow> rows;
    timed_report("analysis.table1.call", times,
                 [&] { rows = wafp::study::table1_stability(ds); });
    for (const auto& r : rows) {
      v.emplace_back("table1." + name(r.id) + ".min",
                     static_cast<double>(r.min));
      v.emplace_back("table1." + name(r.id) + ".max",
                     static_cast<double>(r.max));
      v.emplace_back("table1." + name(r.id) + ".mean", r.mean);
    }
  }
  {
    const trace::Span stage("analysis.table2");
    const auto add = [&](const std::string& key,
                         const wafp::analysis::DiversityStats& d) {
      v.emplace_back("table2." + key + ".distinct",
                     static_cast<double>(d.distinct));
      v.emplace_back("table2." + key + ".unique",
                     static_cast<double>(d.unique));
      v.emplace_back("table2." + key + ".entropy", d.entropy);
      v.emplace_back("table2." + key + ".normalized", d.normalized);
    };
    for (const VectorId id : audio_ids()) {
      wafp::analysis::DiversityStats d;
      timed_report("analysis.table2.call", times,
                   [&] { d = wafp::study::vector_diversity(ds, id); });
      add(name(id), d);
    }
    wafp::analysis::DiversityStats combined;
    timed_report("analysis.table2.call", times, [&] {
      combined = wafp::study::combined_audio_diversity(ds);
    });
    add("combined", combined);
  }
  {
    const trace::Span stage("analysis.fig5");
    for (const VectorId id : audio_ids()) {
      for (std::size_t s = 1; s <= kFig5MaxS; ++s) {
        wafp::study::AgreementPoint p;
        timed_report("analysis.fig5.call", times, [&] {
          p = wafp::study::cluster_agreement(ds, id, s);
        });
        const std::string key = "fig5." + name(id) + ".s" + std::to_string(s);
        v.emplace_back(key + ".mean_ami", p.mean_ami);
        v.emplace_back(key + ".min_ami", p.min_ami);
      }
    }
  }
  {
    const trace::Span stage("analysis.fig9");
    std::vector<std::vector<double>> m;
    timed_report("analysis.fig9.call", times,
                 [&] { m = wafp::study::cross_vector_agreement(ds); });
    for (std::size_t i = 0; i < m.size(); ++i) {
      for (std::size_t j = i + 1; j < m[i].size(); ++j) {
        v.emplace_back(format("fig9.%zu.%zu", i, j), m[i][j]);
      }
    }
  }
  {
    const trace::Span stage("analysis.table6");
    for (const VectorId id : audio_ids()) {
      for (const std::size_t s : kTable6S) {
        double score = 0.0;
        timed_report("analysis.table6.call", times, [&] {
          score = wafp::study::fingerprint_match_score(ds, id, s);
        });
        v.emplace_back("table6." + name(id) + ".s" + std::to_string(s), score);
      }
    }
  }
  return v;
}

struct PassOutcome {
  std::uint64_t population = 0;
  PassTimes times;
  Values values;
  std::uint64_t checksum_collected = 0;
  std::uint64_t checksum_reloaded = 0;
  std::uint64_t renders_during_reload = 0;
  bool saved = false;
};

PassOutcome run_pass(const Options& options, std::uint64_t population,
                     const std::string& csv) {
  PassOutcome out;
  out.population = population;
  const auto cfg = study_config(options, population);
  const Stopwatch total;
  std::filesystem::remove(csv);
  {
    std::optional<Dataset> collected;
    {
      const trace::Span span("study.collect");
      const Stopwatch sw;
      collected.emplace(Dataset::collect(cfg));
      out.times.collect_s = sw.seconds();
    }
    out.checksum_collected = dataset_checksum(*collected);
    const trace::Span span("study.csv_save");
    out.saved = collected->save_csv(csv);
  }
  // Reload: the CSV exists and matches the config, so load_or_collect must
  // parse it and render nothing (checked through the render-cache counter).
  const ProgramCounters before = ProgramCounters::read();
  std::optional<Dataset> reloaded;
  {
    const trace::Span span("study.csv_load");
    reloaded.emplace(Dataset::load_or_collect(cfg, csv));
  }
  out.renders_during_reload =
      ProgramCounters::read().since(before).cache_misses;
  out.checksum_reloaded = dataset_checksum(*reloaded);
  out.values = analyse(*reloaded, out.times);
  out.times.total_s = total.seconds();
  return out;
}

// --- Recorded reference values ---------------------------------------------

std::string reference_path(const std::string& dir, std::uint64_t population) {
  return dir + "/study_pop" + std::to_string(population) + ".txt";
}

/// Reference file: "checksum <hex>" then one "<name> <value>" per line
/// (names may contain spaces; the value is the last field).
bool load_reference(const std::string& path, std::uint64_t& checksum,
                    Values& values) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || line.rfind("checksum ", 0) != 0) {
    return false;
  }
  checksum = std::strtoull(line.c_str() + 9, nullptr, 16);
  while (std::getline(in, line)) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) return false;
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    if (*end != '\0') return false;
    values.emplace_back(line.substr(0, space), value);
  }
  return true;
}

bool save_reference(const std::string& path, std::uint64_t checksum,
                    const Values& values) {
  std::ofstream out(path);
  out << "checksum " << format("%016llx",
                               static_cast<unsigned long long>(checksum))
      << "\n";
  for (const auto& [name, value] : values) {
    out << name << " " << format("%.17g", value) << "\n";
  }
  return static_cast<bool>(out);
}

std::size_t count_mismatches(const Values& a, const Values& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !metric_close(a[i].second, b[i].second)) {
      ++bad;
    }
  }
  return bad;
}

// --- Traced-run kernel split ------------------------------------------------

struct KernelSplit {
  double build_graph_s = 0.0;
  double contingency_s = 0.0;
  double mi_s = 0.0;
  double emi_s = 0.0;
  std::uint64_t emi_calls = 0;
  std::size_t mismatches = 0;  // replayed mean AMI vs cluster_agreement
};

/// Replays the Fig. 5 work through the public collation and analysis
/// functions on the same thread pool, with a span around each call, so the
/// analysis kernels can be timed from outside. Kernel times are busy
/// thread-seconds divided by the pool size, comparable with the stage's
/// wall time. The replayed mean AMI must equal the program's.
KernelSplit replay_fig5(const Dataset& ds, const Values& reference,
                        unsigned threads) {
  KernelSplit split;
  wafp::util::ThreadPool& pool = wafp::util::ThreadPool::shared();
  std::vector<std::uint32_t> everyone(ds.num_users());
  for (std::size_t u = 0; u < everyone.size(); ++u) {
    everyone[u] = static_cast<std::uint32_t>(u);
  }
  std::size_t ref_index = 0;
  // Fig. 5 values sit after Table 1 and Table 2 in the pass values.
  while (ref_index < reference.size() &&
         reference[ref_index].first.rfind("fig5.", 0) != 0) {
    ++ref_index;
  }
  const trace::Span root("replay.fig5");
  const std::uint64_t root_id = root.id();
  for (const VectorId id : audio_ids()) {
    for (std::size_t s = 1; s <= kFig5MaxS; ++s, ref_index += 2) {
      const std::size_t subsets = ds.iterations() / s;
      if (subsets < 2) continue;
      std::vector<std::vector<int>> labels(subsets);
      pool.parallel_for_each(subsets, [&](std::size_t i) {
        const trace::Span span("collation.build_graph", root_id);
        const auto graph = wafp::study::build_graph(
            ds, id, static_cast<std::uint32_t>(i * s),
            static_cast<std::uint32_t>((i + 1) * s));
        labels[i] = graph.extract_clustering(everyone).labels;
      });
      std::vector<std::pair<std::size_t, std::size_t>> pairs;
      for (std::size_t i = 0; i < subsets; ++i) {
        for (std::size_t j = i + 1; j < subsets; ++j) pairs.emplace_back(i, j);
      }
      std::vector<double> amis(pairs.size());
      pool.parallel_for_each(pairs.size(), [&](std::size_t p) {
        const auto& a = labels[pairs[p].first];
        const auto& b = labels[pairs[p].second];
        wafp::analysis::ContingencyTable table;
        {
          const trace::Span span("analysis.contingency", root_id);
          table = wafp::analysis::build_contingency(a, b);
        }
        double mi = 0.0, h_a = 0.0, h_b = 0.0;
        {
          const trace::Span span("analysis.mi", root_id);
          mi = wafp::analysis::mutual_information(table);
          h_a = wafp::analysis::marginal_entropy(table.row_sums, table.total);
          h_b = wafp::analysis::marginal_entropy(table.col_sums, table.total);
        }
        if (h_a == 0.0 && h_b == 0.0) {
          amis[p] = 1.0;
          return;
        }
        double emi = 0.0;
        {
          const trace::Span span("analysis.emi", root_id);
          emi = wafp::analysis::expected_mutual_information(table);
        }
        const double denom = 0.5 * (h_a + h_b) - emi;
        amis[p] = std::fabs(denom) < 1e-15
                      ? (mi >= 0.5 * (h_a + h_b) ? 1.0 : 0.0)
                      : (mi - emi) / denom;
      });
      double total = 0.0;
      for (const double a : amis) total += a;
      const double mean = total / static_cast<double>(amis.size());
      if (ref_index >= reference.size() ||
          !metric_close(mean, reference[ref_index].second)) {
        ++split.mismatches;
      }
    }
  }
  const auto totals = trace::totals(trace::collect());
  const auto busy = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s / threads;
  };
  split.build_graph_s = busy("collation.build_graph");
  split.contingency_s = busy("analysis.contingency");
  split.mi_s = busy("analysis.mi");
  split.emi_s = busy("analysis.emi");
  const auto emi = totals.find("analysis.emi");
  split.emi_calls = emi == totals.end() ? 0 : emi->second.count;
  return split;
}

double setup_once(const Options& options) {
  // The study's program set-up: the device catalog and every population it
  // samples (their costs differ by half, so one alone would make the median
  // jump between populations). The shared worker pool is built once per
  // process.
  const Stopwatch sw;
  const wafp::platform::DeviceCatalog catalog;
  std::size_t users = 0;
  for (std::uint64_t p = 0; p < kPopulations; ++p) {
    const wafp::platform::Population population(
        catalog, kUsers, study_config(options, p).seed);
    users += population.size();
  }
  const double s = sw.seconds();
  if (users != kUsers * kPopulations) std::abort();
  return s;
}

/// Untimed: fills the process-wide FFT twiddle and periodic-wave caches a
/// first collect would otherwise pay for inside the first timed pass.
void warm_up(const Options& options) {
  wafp::study::StudyConfig cfg = study_config(options, 0);
  cfg.num_users = 8;
  cfg.iterations = 2;
  (void)Dataset::collect(cfg);
}

}  // namespace

Result run_study(const Options& options) {
  Result result;
  stamp_host(options, result);
  result.stamp("users", static_cast<double>(kUsers));
  result.stamp("iterations", static_cast<double>(kIterations));
  result.stamp("audio_vectors", static_cast<double>(audio_ids().size()));
  result.stamp("cache_state",
               "collect: cold render cache per pass (process FFT/wave caches "
               "warmed by an untimed collect); reload: CSV parse, renders "
               "nothing");
  const std::string csv = options.scratch + "/study_dataset.csv";
  const std::string ref_dir = options.reference_dir;

  std::vector<double> setups;
  std::vector<PassOutcome> passes;
  Layers layers;
  double peak_rss = 0.0;
  wafp::util::ThreadPool::set_shared_threads(options.threads);
  warm_up(options);
  if (!options.trace) {
    for (int k = 0; k < kPasses; ++k) {
      for (int i = 0; i < kSetupsPerPass; ++i) {
        setups.push_back(setup_once(options));
      }
      passes.push_back(
          run_pass(options, population_of(options.seed, k), csv));
    }
    peak_rss = peak_rss_mb();
  } else {
    // Two untraced passes, then pass 1's population again, traced; the
    // traced/untraced ratio is the tracing overhead.
    passes.push_back(run_pass(options, population_of(options.seed, 0), csv));
    passes.push_back(run_pass(options, population_of(options.seed, 1), csv));
    const ProgramCounters before = ProgramCounters::read();
    trace::set_enabled(true);
    passes.push_back(run_pass(options, passes[1].population, csv));
    trace::set_enabled(false);
    const ProgramCounters delta = ProgramCounters::read().since(before);
    const auto records = trace::collect();
    const auto totals = trace::totals(records);
    const auto total_s = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.total_s;
    };
    layers.set("study.collect_s", total_s("study.collect"));
    layers.set("study.csv_save_s", total_s("study.csv_save"));
    layers.set("study.csv_load_s", total_s("study.csv_load"));
    layers.set("analysis.table1_s", total_s("analysis.table1"));
    layers.set("analysis.table2_s", total_s("analysis.table2"));
    layers.set("analysis.fig5_s", total_s("analysis.fig5"));
    layers.set("analysis.fig9_s", total_s("analysis.fig9"));
    layers.set("analysis.table6_s", total_s("analysis.table6"));
    report_render_layers(delta, layers);
    layers.set("obs.trace_overhead_ratio",
               passes[2].times.total_s / passes[1].times.total_s);
    report_spans(totals, result);
    trace::write_jsonl(options.scratch + "/trace_study.jsonl", records);

    // Kernel split on the last reloaded dataset's Fig. 5 work.
    const Dataset ds = Dataset::load_or_collect(
        study_config(options, passes.back().population), csv);
    trace::set_enabled(true);
    const KernelSplit split = replay_fig5(ds, passes.back().values,
                                          options.threads);
    trace::set_enabled(false);
    layers.set("collation.build_graph_s", split.build_graph_s);
    layers.set("analysis.contingency_s", split.contingency_s);
    layers.set("analysis.mi_s", split.mi_s);
    layers.set("analysis.emi_s", split.emi_s);
    layers.set("analysis.emi_calls", static_cast<double>(split.emi_calls));
    result.gate(split.mismatches == 0,
                format("fig5 kernel replay equals cluster_agreement "
                       "(%zu mismatches)",
                       split.mismatches),
                split.mismatches);
    result.line(format("fig5 split: stage %.3f s, emi %.3f s (%llu calls), "
                       "mi %.3f s, contingency %.3f s, graphs %.3f s",
                       total_s("analysis.fig5"), split.emi_s,
                       static_cast<unsigned long long>(split.emi_calls),
                       split.mi_s, split.contingency_s, split.build_graph_s));
  }
  std::filesystem::remove(csv);

  // Gates: CSV round trip, traced pass identical to its untraced twin,
  // every pass equal to its population's recorded reference.
  if (!options.record_reference.empty()) {
    result.gate(save_reference(options.record_reference,
                               passes[0].checksum_collected,
                               passes[0].values),
                "reference written to " + options.record_reference);
  }
  std::size_t stages = 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassOutcome& o = passes[p];
    stages += 3 + o.times.report_ms.size();
    result.gate(o.saved, format("pass %zu: save_csv succeeded", p));
    result.gate(o.checksum_collected == o.checksum_reloaded,
                format("pass %zu: dataset checksum %016llx identical after "
                       "the CSV round trip",
                       p, static_cast<unsigned long long>(
                              o.checksum_collected)));
    result.gate(o.renders_during_reload == 0,
                format("pass %zu: reload rendered nothing (%llu renders)", p,
                       static_cast<unsigned long long>(
                           o.renders_during_reload)));
    if (!options.record_reference.empty()) continue;
    // A missing or unreadable reference fails the gate: the values of a
    // pass are never left unchecked.
    Values reference_values;
    std::uint64_t reference_checksum = 0;
    const std::string ref_path = reference_path(ref_dir, o.population);
    const bool loaded =
        load_reference(ref_path, reference_checksum, reference_values);
    const std::size_t bad =
        loaded ? count_mismatches(o.values, reference_values)
               : o.values.size();
    result.gate(loaded && reference_checksum == o.checksum_collected,
                format("pass %zu: dataset checksum equals %s", p,
                       ref_path.c_str()));
    result.gate(loaded && bad == 0,
                format("pass %zu: %zu table/figure values within 1e-9 of "
                       "the recorded reference (%zu differ)",
                       p, o.values.size(), bad),
                bad);
  }
  if (options.trace) {
    const std::size_t drift =
        count_mismatches(passes[2].values, passes[1].values);
    result.gate(drift == 0,
                format("traced pass: %zu table/figure values identical to "
                       "the untraced pass on the same population (%zu "
                       "differ)",
                       passes[1].values.size(), drift),
                drift);
  }
  result.attempt(stages);

  // Every run studies the same populations, so study_s, the time of the
  // whole study (every pass), is the same work whatever the seed. Latency
  // pools the table/figure calls of every pass: a pass alone has 136 calls
  // of very different cost, whose p90 falls between two kinds of call.
  const double observations =
      static_cast<double>(kUsers) * kIterations * audio_ids().size();
  std::size_t counted_passes = 0;
  Samples report_ms;
  std::string populations;
  for (const PassOutcome& o : passes) {
    if (options.trace && &o == &passes.back()) continue;  // traced pass
    ++counted_passes;
    result.line(format("pass population %llu: %.6f s, collect %.6f s",
                       static_cast<unsigned long long>(o.population),
                       o.times.total_s, o.times.collect_s));
    for (const double ms : o.times.report_ms.values()) report_ms.add(ms);
    populations += format("%s%llu", populations.empty() ? "" : " ",
                          static_cast<unsigned long long>(o.population));
  }
  const double counted = static_cast<double>(counted_passes);
  double study_s = 0.0;
  double collect_s = 0.0;
  for (const PassOutcome& o : passes) {
    if (options.trace && &o == &passes.back()) continue;
    study_s += o.times.total_s;
    collect_s += o.times.collect_s;
  }
  result.stamp("passes", counted);
  result.stamp("populations", populations);
  result.line(format("study: %zu users x %u iterations x %zu audio vectors, "
                     "%zu passes over recorded populations %s, seed %llu",
                     kUsers, kIterations, audio_ids().size(), counted_passes,
                     populations.c_str(),
                     static_cast<unsigned long long>(options.seed)));
  result.line(format("study_s = %.6f s (%zu passes); collect %.6f s",
                     study_s, counted_passes, collect_s));
  if (!setups.empty()) {
    std::vector<double> sorted = setups;
    std::sort(sorted.begin(), sorted.end());
    result.line(format("setup_s: min %.6f s, median %.6f s, max %.6f s "
                       "over %zu set-ups",
                       sorted.front(), median_of(sorted), sorted.back(),
                       sorted.size()));
  }
  if (options.trace) {
    layers.report(result);
    return result;
  }
  EndToEnd e2e;
  e2e.setup_s = median_of(setups);
  e2e.peak_rss_mb = peak_rss;
  e2e.work_s = study_s;
  e2e.throughput_per_s = observations * counted / collect_s;
  e2e.latency_ms = {report_ms.summarize()};
  report_end_to_end(e2e, result);
  return result;
}

}  // namespace perfbench
