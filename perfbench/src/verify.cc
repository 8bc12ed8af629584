// Workload `verify`: the authentication setting of the drift scenario
// (synthetic source, the nine default vectors, the drift bench's default
// rates) on an in-memory engine. The benchmark drives each epoch itself:
// generate the epoch, probe every user (reads), ingest the epoch (writes),
// then score the partition. Reads and writes are about equal in number.
#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/anonymity.h"
#include "analysis/verification.h"
#include "bench.h"
#include "scenario/scenario.h"
#include "service/sharded_collation_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using wafp::scenario::Observation;
using wafp::service::Reject;

constexpr std::size_t kUsers = 16'000;
constexpr std::uint32_t kEpochs = 8;
// Passes in the untraced run: about the run length of BENCHMARK.json on a
// 4-thread host.
constexpr int kPasses = 7;
// Every 64th probe is timed: 1750 samples a pass, whose p99 has 17 beyond
// it, without turning the tail into a census of scheduler preemptions.
constexpr std::size_t kProbeSampleEvery = 64;
// Set-ups timed before each pass, spread over the run.
constexpr int kSetupsPerPass = 2;

wafp::scenario::ScenarioConfig scenario_config(const Options& options) {
  wafp::scenario::ScenarioConfig cfg;
  cfg.num_users = kUsers;
  cfg.epochs = kEpochs;
  cfg.seed = options.seed;
  cfg.source = wafp::scenario::ObservationSource::kSynthetic;
  // bench/drift_scenario's default drift rates.
  cfg.drift.stack_swap_rate = 0.02;
  cfg.drift.simd_tier_rate = 0.01;
  cfg.drift.jitter_regime_rate = 0.01;
  cfg.threads = options.threads;
  return cfg;
}

/// The scenario's plurality rule (scenario.h): most votes wins, ties to
/// the cluster whose first vote came earliest in probe order.
std::optional<std::size_t> plurality_winner(
    const std::vector<std::optional<std::size_t>>& votes) {
  std::vector<std::size_t> order;
  std::unordered_map<std::size_t, std::size_t> counts;
  for (const auto& v : votes) {
    if (!v.has_value()) continue;
    auto [it, inserted] = counts.try_emplace(*v, 0);
    if (inserted) order.push_back(*v);
    ++it->second;
  }
  std::optional<std::size_t> winner;
  std::size_t best = 0;
  for (const std::size_t cluster : order) {
    if (counts[cluster] > best) {
      best = counts[cluster];
      winner = cluster;
    }
  }
  return winner;
}

struct PassOutcome {
  double seconds = 0.0;
  double probe_s = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t submissions = 0;
  std::uint64_t rejected = 0;
  wafp::analysis::VerificationCounts totals;
  std::vector<wafp::analysis::AnonymityStats> anonymity;
  std::vector<wafp::analysis::PairChurn> churn;
  std::uint64_t checksum = 0;
  std::uint64_t drift_events = 0;
  Samples probe_ms;  // one sample per kProbeSampleEvery probed users
};

struct System {
  wafp::scenario::ScenarioPopulation population;
  wafp::scenario::ScenarioStream stream;
  std::unique_ptr<wafp::service::CollationEngine> engine;

  explicit System(const wafp::scenario::ScenarioConfig& cfg)
      : population(cfg.num_users, cfg.seed, cfg.tuning, cfg.drift),
        stream(population, cfg.source, cfg.vectors, cfg.threads),
        engine(wafp::service::make_engine(cfg.service, cfg.shards)) {}
};

PassOutcome run_pass(const wafp::scenario::ScenarioConfig& cfg) {
  PassOutcome out;
  const Stopwatch pass;
  System sys(cfg);
  wafp::service::CollationEngine& engine = *sys.engine;
  const std::size_t users = sys.population.size();
  const std::size_t per_user = sys.stream.vectors().size();
  std::vector<int> previous_labels;
  std::vector<std::optional<std::size_t>> own(users);
  std::vector<std::optional<std::size_t>> votes(per_user);
  std::unordered_map<std::size_t, std::uint64_t> census;
  std::unordered_map<std::size_t, int> dense;

  for (std::uint32_t e = 0; e < cfg.epochs; ++e) {
    std::vector<Observation> observations;
    {
      const trace::Span span("scenario.epoch");
      observations = sys.stream.epoch(e);
    }
    const std::uint64_t timestamp =
        cfg.timestamp_base + cfg.timestamp_stride * e;
    if (e >= 1) {
      // Probe before ingest, against the state as of epoch e - 1.
      const Stopwatch probe_phase;
      census.clear();
      for (std::size_t u = 0; u < users; ++u) {
        const trace::Span span("collation.user_component");
        own[u] = engine.user_component(static_cast<std::uint32_t>(u));
        if (own[u].has_value()) ++census[*own[u]];
      }
      for (std::size_t u = 0; u < users; ++u) {
        const bool sampled = u % kProbeSampleEvery == 0;
        const std::int64_t t0 = sampled ? now_ns() : 0;
        for (std::size_t v = 0; v < per_user; ++v) {
          const trace::Span span("collation.match");
          votes[v] = engine.match({&observations[u * per_user + v].digest, 1});
        }
        const std::optional<std::size_t> winner = plurality_winner(votes);
        if (sampled) {
          out.probe_ms.add(static_cast<double>(now_ns() - t0) * 1e-6);
        }
        ++out.totals.probes;
        out.totals.imposter_trials += users - 1;
        const bool genuine = winner.has_value() && own[u].has_value() &&
                             *winner == *own[u];
        if (genuine) {
          ++out.totals.genuine_accepts;
        } else {
          ++out.totals.false_non_matches;
        }
        if (winner.has_value()) {
          const auto it = census.find(*winner);
          const std::uint64_t members = it == census.end() ? 0 : it->second;
          out.totals.false_matches += members - (genuine ? 1 : 0);
        }
      }
      out.probe_s += probe_phase.seconds();
      out.probes += users;
    }
    // Ingest (user-major, vector-minor: the stream's order).
    for (const Observation& obs : observations) {
      wafp::service::RawSubmission raw;
      raw.user = obs.user;
      raw.vector = static_cast<std::uint32_t>(obs.vector);
      raw.timestamp = timestamp;
      raw.efp_hex = obs.digest.hex();
      Reject got;
      for (;;) {
        {
          const trace::Span span("service.submit");
          got = engine.submit(raw).reason;
        }
        if (got != Reject::kQueueFull) break;
        const trace::Span span("service.pump");
        engine.pump();
      }
      ++out.submissions;
      if (got != Reject::kNone) ++out.rejected;
    }
    {
      const trace::Span span("service.pump");
      engine.pump();
    }
    // Score the post-ingest partition.
    std::vector<int> labels(users);
    dense.clear();
    for (std::size_t u = 0; u < users; ++u) {
      std::optional<std::size_t> component;
      {
        const trace::Span span("collation.user_component");
        component = engine.user_component(static_cast<std::uint32_t>(u));
      }
      const auto [it, inserted] = dense.try_emplace(
          component.value_or(SIZE_MAX), static_cast<int>(dense.size()));
      labels[u] = it->second;
    }
    {
      const trace::Span span("analysis.score");
      out.anonymity.push_back(wafp::analysis::anonymity_from_labels(labels));
      if (e >= 1) {
        out.churn.push_back(wafp::analysis::pair_churn(previous_labels,
                                                       labels));
      }
    }
    previous_labels = std::move(labels);
  }
  out.checksum = engine.component_checksum();
  out.drift_events = sys.stream.drift_events();
  out.seconds = pass.seconds();
  return out;
}

double setup_once(const wafp::scenario::ScenarioConfig& cfg) {
  const Stopwatch sw;
  const System sys(cfg);
  const double s = sw.seconds();
  if (sys.population.size() != cfg.num_users) std::abort();
  return s;
}

}  // namespace

Result run_verify(const Options& options) {
  Result result;
  stamp_host(options, result);
  const wafp::scenario::ScenarioConfig cfg = scenario_config(options);
  const std::size_t vectors = wafp::scenario::default_scenario_vectors().size();
  result.stamp("users", static_cast<double>(kUsers));
  result.stamp("epochs", static_cast<double>(kEpochs));
  result.stamp("vectors", static_cast<double>(vectors));
  result.stamp("drift_rates", "stack 0.02, simd 0.01, jitter 0.01");
  result.stamp("cache_state",
               "fresh population, stream and in-memory engine per pass; "
               "synthetic digests (no render cache)");

  std::vector<double> setups;

  std::vector<PassOutcome> passes;
  Layers layers;
  double peak_rss = 0.0;
  if (!options.trace) {
    for (int p = 0; p < kPasses; ++p) {
      for (int i = 0; i < kSetupsPerPass; ++i) setups.push_back(setup_once(cfg));
      passes.push_back(run_pass(cfg));
    }
    peak_rss = peak_rss_mb();
  } else {
    passes.push_back(run_pass(cfg));
    passes.push_back(run_pass(cfg));
    trace::set_enabled(true);
    passes.push_back(run_pass(cfg));
    trace::set_enabled(false);
    const auto records = trace::collect();
    const auto totals = trace::totals(records);
    const auto find = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? trace::Totals{} : it->second;
    };
    layers.set("scenario.epoch_s", find("scenario.epoch").total_s);
    layers.set("scenario.drift_events",
               static_cast<double>(passes.back().drift_events));
    layers.set("collation.match_s", find("collation.match").total_s);
    layers.set("collation.match_calls",
               static_cast<double>(find("collation.match").count));
    layers.set("collation.user_component_s",
               find("collation.user_component").total_s);
    layers.set("service.submit_s", find("service.submit").total_s);
    layers.set("service.submit_calls",
               static_cast<double>(find("service.submit").count));
    layers.set("service.pump_s", find("service.pump").total_s);
    layers.set("service.applied",
               static_cast<double>(passes.back().submissions -
                                   passes.back().rejected));
    layers.set("analysis.score_s", find("analysis.score").total_s);
    layers.set("obs.trace_overhead_ratio",
               passes[2].seconds / passes[1].seconds);
    report_spans(totals, result);
    trace::write_jsonl(options.scratch + "/trace_verify.jsonl", records);
  }

  // Gate: the benchmark's epoch loop must score exactly what the
  // program's ScenarioRunner scores for the same config.
  const wafp::scenario::ScenarioResult reference =
      wafp::scenario::ScenarioRunner(cfg).run();
  const wafp::analysis::VerificationCounts ref = reference.totals();
  std::uint64_t operations = 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassOutcome& o = passes[p];
    operations += o.probes + o.submissions;
    bool epochs_ok = o.anonymity.size() == reference.epochs.size();
    for (std::size_t e = 0; epochs_ok && e < o.anonymity.size(); ++e) {
      epochs_ok = o.anonymity[e] == reference.epochs[e].anonymity &&
                  (e == 0 || o.churn[e - 1] == reference.epochs[e].churn);
    }
    const bool ok = o.totals.probes == ref.probes &&
                    o.totals.genuine_accepts == ref.genuine_accepts &&
                    o.totals.false_non_matches == ref.false_non_matches &&
                    o.totals.false_matches == ref.false_matches &&
                    o.totals.imposter_trials == ref.imposter_trials &&
                    o.checksum == reference.component_checksum &&
                    o.drift_events == reference.drift_events && epochs_ok &&
                    o.rejected == 0;
    result.gate(ok,
                format("pass %zu: FNMR %llu/%llu, FMR %llu/%llu, checksum "
                       "%016llx, anonymity and churn per epoch equal "
                       "ScenarioRunner::run()",
                       p,
                       static_cast<unsigned long long>(
                           o.totals.false_non_matches),
                       static_cast<unsigned long long>(o.totals.probes),
                       static_cast<unsigned long long>(o.totals.false_matches),
                       static_cast<unsigned long long>(
                           o.totals.imposter_trials),
                       static_cast<unsigned long long>(o.checksum)),
                ok ? 0 : o.probes + o.submissions);
  }
  result.attempt(operations);

  std::vector<double> pass_s;
  std::vector<double> probe_rate;
  std::vector<Summary> probes;
  for (const PassOutcome& o : passes) {
    if (options.trace && &o == &passes.back()) continue;  // traced pass
    pass_s.push_back(o.seconds);
    probe_rate.push_back(static_cast<double>(o.probes) / o.probe_s);
    probes.push_back(o.probe_ms.summarize());
  }
  const Summary& probe_summary = probes.front();
  const PassOutcome& first = passes.front();
  result.line(format("verify: %zu users x %u epochs x %zu vectors, %zu "
                     "passes, seed %llu; %llu submissions and %llu probes "
                     "(%llu match calls) per pass",
                     kUsers, kEpochs, vectors, pass_s.size(),
                     static_cast<unsigned long long>(options.seed),
                     static_cast<unsigned long long>(first.submissions),
                     static_cast<unsigned long long>(first.probes),
                     static_cast<unsigned long long>(first.probes * vectors)));
  result.line(format("verify_s = %.6f s (median of %zu passes)",
                     median_of(pass_s), pass_s.size()));
  result.line(format("verify_probe_p50_us, verify_probe_p99_us: p50_ms and "
                     "tail_ms x 1000 (%s per pass, every %zuth probe timed)",
                     probe_summary.tail_label().c_str(),
                     kProbeSampleEvery));
  result.stamp("passes", static_cast<double>(pass_s.size()));
  if (options.trace) {
    layers.report(result);
    return result;
  }
  EndToEnd e2e;
  e2e.setup_s = median_of(setups);
  e2e.peak_rss_mb = peak_rss;
  e2e.work_s = median_of(pass_s);
  e2e.throughput_per_s = median_of(probe_rate);
  e2e.latency_ms = probes;
  report_end_to_end(e2e, result);
  return result;
}

}  // namespace perfbench
