// Workload `ingest`: the durable tracking-server write path. The engine is
// what service::make_engine builds with the tracking server's defaults
// (single apply loop, WAL, snapshot every 1024 applies). The trace is a
// seeded stream over a large Zipf-skewed user set whose platform families
// share fingerprints (so components merge), with a small share of
// malformed, unknown-vector and timestamp-regressed submissions.
//
// Phases, on one engine: closed-loop capacity, open-loop at a fixed rate
// timed from each due time, a ladder of fixed rates, then crash() and
// recovery. An in-memory engine replays the accepted submissions as the
// checksum witness. The first closed-phase engine is crashed and its
// durable state kept aside: set-up and recovery of that state are timed at
// every phase boundary, so their medians sample the whole run.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "open_loop.h"
#include "service/sharded_collation_service.h"
#include "trace.h"

namespace perfbench {
namespace {

using wafp::service::CollationEngine;
using wafp::service::RawSubmission;
using wafp::service::Reject;

// Trace shape.
constexpr std::uint32_t kUsers = 300'000;
constexpr double kZipfExponent = 0.9;
constexpr std::uint32_t kFamilies = kUsers / 16;
constexpr std::uint32_t kVectors = 7;       // audio vector ids 0..6
constexpr std::uint32_t kNoisePerMille = 100;
constexpr std::uint32_t kMalformedPerMille = 5;
constexpr std::uint32_t kUnknownPerMille = 5;
constexpr std::uint32_t kRegressionPerMille = 5;

// Phase sizes, for a 4-thread host (see BENCHMARK.json run_seconds).
constexpr std::size_t kClosedSubmissions = 40'000;
// Open-loop rate: low enough that well under half the submissions arrive
// during a snapshot pause, so the median stays off the pause mode.
constexpr double kFixedRate = 2'500.0;  // submissions/s
// Under 10000 samples a phase, so each phase's tail is its p99 (see
// timing.cc).
constexpr std::size_t kFixedSubmissions = 4'500;
constexpr int kFixedPhases = 5;
constexpr double kLadderRates[] = {5'000.0, 10'000.0, 15'000.0, 20'000.0};
constexpr double kLadderStepSeconds = 0.75;
// Above the snapshot pause of this graph size: every rate's p99 includes
// submissions queued behind a snapshot.
constexpr double kP99LimitMs = 150.0;
// Timed at every phase boundary (before each closed repetition, open-loop
// phase and ladder step, and after the ladder).
constexpr int kSetupsPerProbe = 3;
constexpr int kRecoveriesPerProbe = 2;

// Tracking-server defaults (examples/tracking_server.cpp passes a default
// ServiceConfig and 0 shards to make_engine).
constexpr std::size_t kShards = 0;

enum class Expect { kAccept, kMalformed, kUnknown, kRegression };

/// Pure function of (seed, index): the same seed gives the same trace.
class TraceGen {
 public:
  explicit TraceGen(std::uint64_t seed) : seed_(mix64(seed ^ 0x1A6E57ULL)) {
    cdf_.resize(kUsers);
    double total = 0.0;
    for (std::uint32_t r = 0; r < kUsers; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  struct Item {
    RawSubmission raw;
    Expect expect = Expect::kAccept;
  };

  /// `accepted_user(u)` says whether user u already has an accepted
  /// submission (a regressed timestamp is only a regression then).
  template <class AcceptedUser>
  Item make(std::uint64_t i, AcceptedUser&& accepted_user) const {
    const std::uint64_t h = mix64(seed_ ^ mix64(i));
    const double uniform =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    const auto rank = static_cast<std::uint32_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), uniform) - cdf_.begin());
    // Scatter ranks over ids so popular users are not id-adjacent.
    const auto user = static_cast<std::uint32_t>(
        mix64(seed_ + rank) % kUsers);
    const std::uint64_t h2 = mix64(h);
    const auto kind = static_cast<std::uint32_t>(h2 % 1000);
    const auto vector = static_cast<std::uint32_t>((h2 >> 10) % kVectors);
    const bool noise = (h2 >> 20) % 1000 < kNoisePerMille;

    Item item;
    item.raw.user = std::min(user, kUsers - 1);
    item.raw.vector = vector;
    item.raw.timestamp = 1 + i;
    item.raw.efp_hex =
        noise ? hex(mix64(seed_ ^ 0xA0153ULL) ^ mix64(item.raw.user),
                    vector * 2 + ((h2 >> 40) & 1))
              : hex(mix64(seed_ ^ 0xFA311ULL) ^ mix64(family(item.raw.user)),
                    vector);
    if (kind < kMalformedPerMille) {
      item.raw.efp_hex[5] = 'G';  // not lowercase hex
      item.expect = Expect::kMalformed;
    } else if (kind < kMalformedPerMille + kUnknownPerMille) {
      item.raw.vector = 1000 + vector;
      item.expect = Expect::kUnknown;
    } else if (kind < kMalformedPerMille + kUnknownPerMille +
                          kRegressionPerMille &&
               accepted_user(item.raw.user)) {
      item.raw.timestamp = 0;
      item.expect = Expect::kRegression;
    }
    return item;
  }

 private:
  std::uint32_t family(std::uint32_t user) const {
    return static_cast<std::uint32_t>(mix64(seed_ ^ (user * 7919ULL)) %
                                      kFamilies);
  }

  static std::string hex(std::uint64_t key, std::uint64_t salt) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(64, '0');
    for (int w = 0; w < 4; ++w) {
      std::uint64_t v = mix64(key ^ mix64(salt * 4 + w + 1));
      for (int c = 0; c < 16; ++c) {
        out[w * 16 + c] = kDigits[v & 15];
        v >>= 4;
      }
    }
    return out;
  }

  std::uint64_t seed_;
  std::vector<double> cdf_;
};

bool matches(Expect expect, Reject got) {
  switch (expect) {
    case Expect::kAccept: return got == Reject::kNone;
    case Expect::kMalformed: return got == Reject::kMalformedHash;
    case Expect::kUnknown: return got == Reject::kUnknownVector;
    case Expect::kRegression: return got == Reject::kTimestampRegression;
  }
  return false;
}

wafp::service::ServiceConfig durable_config(const std::string& dir) {
  wafp::service::ServiceConfig cfg;
  cfg.state_dir = dir;
  return cfg;
}

/// Client-side state of the run: expectations, acceptance, failures.
struct Client {
  const TraceGen* gen;
  std::vector<std::uint8_t> accepted_user;  // per user
  std::vector<std::uint32_t> accepted;      // trace indices, in order
  std::uint64_t next = 0;                   // next trace index
  std::uint64_t submitted = 0;
  std::uint64_t mismatches = 0;

  TraceGen::Item item(std::uint64_t i) {
    return gen->make(i, [&](std::uint32_t u) { return accepted_user[u] != 0; });
  }

  /// Book one answered submission; false if the answer was wrong.
  void book(const TraceGen::Item& item, Reject got, std::uint64_t i) {
    ++submitted;
    if (!matches(item.expect, got)) ++mismatches;
    if (got == Reject::kNone) {
      accepted_user[item.raw.user] = 1;
      accepted.push_back(static_cast<std::uint32_t>(i));
    }
  }
};

struct ClosedOutcome {
  double seconds = 0.0;
  double pump_s = 0.0;
  double snapshot_s = 0.0;
  std::uint64_t depth_max = 0;  // accepted submissions queued at a pump
};

/// Closed loop: one client submits back to back and pumps the engine
/// inline whenever the queue is full (the tracking server's loop).
ClosedOutcome closed_loop(CollationEngine& engine, Client& client,
                          std::size_t n) {
  ClosedOutcome out;
  const ProgramCounters before = ProgramCounters::read();
  std::uint64_t queued = 0;
  const auto pump = [&] {
    out.depth_max = std::max(out.depth_max, queued);
    queued = 0;
    const trace::Span span("service.pump");
    const Stopwatch sw;
    engine.pump();
    out.pump_s += sw.seconds();
  };
  const Stopwatch sw;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t i = client.next++;
    const TraceGen::Item item = client.item(i);
    for (;;) {
      Reject got;
      {
        const trace::Span span("service.submit");
        got = engine.submit(item.raw).reason;
      }
      if (got == Reject::kQueueFull) {
        pump();
        continue;
      }
      client.book(item, got, i);
      if (got == Reject::kNone) ++queued;
      break;
    }
  }
  pump();
  out.seconds = sw.seconds();
  out.snapshot_s = ProgramCounters::read().since(before).snapshot_s;
  return out;
}

struct OpenOutcome {
  OpenLoopSummary summary;
  std::size_t refused = 0;
  double late_mid_ms = 0.0;  // how far behind schedule the server ran
  double late_end_ms = 0.0;
};

/// Open loop at `rate` through the tracking server's own loop: one thread
/// submits each request at its due time and pumps the engine inline right
/// after it (examples/tracking_server pumps after every visitor). A request
/// is done when the pump that applied it returns. While a pump runs (a
/// snapshot, say) later requests wait and go out late, and their latency
/// still runs from their due times.
OpenOutcome open_loop(CollationEngine& engine, Client& client, double rate,
                      std::size_t n) {
  OpenLoopTimes times(n);
  OpenOutcome out;
  const std::uint64_t first = client.next;
  client.next += n;
  run_open_loop(rate, times, [&](std::size_t k) {
    const std::uint64_t i = first + k;
    const TraceGen::Item item = client.item(i);
    Reject got;
    {
      const trace::Span span("service.submit");
      got = engine.submit(item.raw).reason;
    }
    if (got == Reject::kQueueFull) {
      ++out.refused;
      times.done[k] = OpenLoopTimes::kRefused;
      return;
    }
    client.book(item, got, i);
    if (got != Reject::kNone) {
      times.done[k] = OpenLoopTimes::kUntimed;  // answered synchronously
      return;
    }
    {
      const trace::Span span("service.pump");
      engine.pump();
    }
    times.done[k] = now_ns();
  });
  out.late_mid_ms =
      static_cast<double>(times.sent[n / 2] - times.due[n / 2]) * 1e-6;
  out.late_end_ms =
      static_cast<double>(times.sent[n - 1] - times.due[n - 1]) * 1e-6;
  out.summary = summarize(times);
  return out;
}

/// Submit further trace items (pumping inline) until the WAL holds
/// `records` records past the last snapshot.
void top_up_wal(CollationEngine& engine, Client& client, std::uint64_t records,
                std::uint64_t snapshot_every) {
  const auto in_wal = [&] {
    const wafp::service::ServiceStats s = engine.stats();
    return s.applied - s.snapshots_written * snapshot_every;
  };
  while (in_wal() != records) {
    const std::uint64_t i = client.next++;
    const TraceGen::Item item = client.item(i);
    Reject got = engine.submit(item.raw).reason;
    while (got == Reject::kQueueFull) {
      engine.pump();
      got = engine.submit(item.raw).reason;
    }
    client.book(item, got, i);
    engine.pump();
  }
}

std::uintmax_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

struct Crashed {
  std::uint64_t checksum = 0;
  wafp::service::ServiceStats stats;
  std::uintmax_t snapshot_bytes = 0;
};

/// Leave the durable state as a crash finds it (the latest snapshot plus
/// exactly half a snapshot cadence of WAL records, whatever the seed), then
/// crash the engine.
Crashed crash(std::unique_ptr<CollationEngine>& engine, Client& client,
              const wafp::service::ServiceConfig& cfg) {
  Crashed out;
  engine->pump();
  top_up_wal(*engine, client, cfg.snapshot_every / 2, cfg.snapshot_every);
  out.stats = engine->stats();
  out.checksum = engine->component_checksum();
  out.snapshot_bytes = file_size_or_zero(cfg.state_dir + "/graph.snapshot");
  engine->crash();
  engine.reset();
  return out;
}

struct Recovered {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
  wafp::service::ServiceStats stats;
  std::size_t clusters = 0, users = 0, fingerprints = 0;
};

/// Recover the engine whose durable state is in cfg.state_dir and crash it
/// again untouched, so the next recovery reads the same state.
Recovered recover(const wafp::service::ServiceConfig& cfg) {
  Recovered out;
  const Stopwatch sw;
  auto engine = wafp::service::make_engine(cfg, kShards);
  out.seconds = sw.seconds();
  out.checksum = engine->component_checksum();
  out.stats = engine->stats();
  out.clusters = engine->cluster_count();
  out.users = engine->user_count();
  out.fingerprints = engine->fingerprint_count();
  engine->crash();
  return out;
}

/// Set-up of one run: the trace generator (its Zipf table over every
/// user) and the durable engine on an empty state directory.
double setup_once(std::uint64_t seed, const std::string& dir) {
  std::filesystem::remove_all(dir);
  const Stopwatch sw;
  const TraceGen gen(seed);
  auto engine = wafp::service::make_engine(durable_config(dir), kShards);
  const double s = sw.seconds();
  if (gen.make(0, [](std::uint32_t) { return false; }).raw.user >= kUsers) {
    std::abort();
  }
  engine.reset();
  std::filesystem::remove_all(dir);
  return s;
}

}  // namespace

Result run_ingest(const Options& options) {
  Result result;
  stamp_host(options, result);
  const std::string dir = options.scratch + "/ingest_state";
  const std::string setup_dir = options.scratch + "/ingest_setup";
  const wafp::service::ServiceConfig recovery_cfg =
      durable_config(options.scratch + "/ingest_recovery");
  const wafp::service::ServiceConfig cfg = durable_config(dir);
  result.stamp("users", static_cast<double>(kUsers));
  result.stamp("families", static_cast<double>(kFamilies));
  result.stamp("closed_submissions", static_cast<double>(kClosedSubmissions));
  result.stamp("fixed_rate_per_s", kFixedRate);
  result.stamp("fixed_submissions", static_cast<double>(kFixedSubmissions));
  result.stamp("p99_limit_ms", kP99LimitMs);
  result.stamp("snapshot_every", static_cast<double>(cfg.snapshot_every));
  result.stamp("queue_capacity", static_cast<double>(cfg.queue_capacity));
  result.stamp("shards", static_cast<double>(kShards));
  result.stamp("cache_state",
               "engine starts empty; open-loop and ladder phases run on the "
               "graph the closed phase built; recovery reads a cold state "
               "dir written this run");

  // Probes at every phase boundary: set-up, and recovery of the first
  // closed-phase engine's crashed state once it exists.
  std::vector<double> setups;
  std::vector<double> recoveries;
  std::size_t recovery_mismatches = 0;
  std::optional<Crashed> recovery_state;
  const auto probe = [&] {
    for (int i = 0; i < kSetupsPerProbe; ++i) {
      setups.push_back(setup_once(options.seed, setup_dir));
    }
    if (!recovery_state) return;
    for (int i = 0; i < kRecoveriesPerProbe; ++i) {
      const Recovered r = recover(recovery_cfg);
      recoveries.push_back(r.seconds);
      if (r.checksum != recovery_state->checksum) ++recovery_mismatches;
    }
  };

  const TraceGen gen(options.seed);
  const auto fresh_client = [&] {
    return Client{&gen, std::vector<std::uint8_t>(kUsers, 0), {}, 0, 0, 0};
  };
  std::vector<double> closed_rates;
  // Of the closed repetitions the run does not carry on with.
  std::uint64_t closed_mismatches = 0;
  std::uint64_t closed_submitted = 0;
  Layers layers;

  // A closed repetition the run does not carry on with: a fresh engine in
  // its own state dir over the trace prefix, then dropped, or crashed and
  // kept aside as the recovery state. Returns its time.
  const wafp::service::ServiceConfig spare_cfg =
      durable_config(options.scratch + "/ingest_spare");
  const auto spare_repetition = [&](bool keep_for_recovery) {
    probe();
    Client spare = fresh_client();
    std::filesystem::remove_all(spare_cfg.state_dir);
    auto spare_engine = wafp::service::make_engine(spare_cfg, kShards);
    const ClosedOutcome out =
        closed_loop(*spare_engine, spare, kClosedSubmissions);
    closed_rates.push_back(static_cast<double>(kClosedSubmissions) /
                           out.seconds);
    if (keep_for_recovery) {
      recovery_state = crash(spare_engine, spare, spare_cfg);
      std::filesystem::remove_all(recovery_cfg.state_dir);
      std::filesystem::rename(spare_cfg.state_dir, recovery_cfg.state_dir);
    }
    spare_engine.reset();
    std::filesystem::remove_all(spare_cfg.state_dir);
    closed_mismatches += spare.mismatches;
    closed_submitted += spare.submitted;
    return out.seconds;
  };

  // The first closed repetition becomes the recovery state; the second
  // builds the live engine every later phase runs on. In the traced run
  // only the live repetition is traced; its time over the first one's is
  // the tracing overhead.
  const double untraced_s = spare_repetition(true);
  probe();
  Client client = fresh_client();
  client.accepted.reserve(kClosedSubmissions +
                          kFixedSubmissions * (kFixedPhases + 1));
  std::filesystem::remove_all(dir);
  std::unique_ptr<CollationEngine> engine =
      wafp::service::make_engine(cfg, kShards);
  if (options.trace) trace::set_enabled(true);
  const ClosedOutcome closed =
      closed_loop(*engine, client, kClosedSubmissions);
  closed_rates.push_back(static_cast<double>(kClosedSubmissions) /
                         closed.seconds);
  // WAL bytes per record: after the closed phase's final pump the WAL holds
  // exactly the records applied since the last snapshot.
  double wal_bytes_per_sub = 0.0;
  {
    const wafp::service::ServiceStats s = engine->stats();
    const std::uint64_t in_wal =
        s.applied - s.snapshots_written * cfg.snapshot_every;
    if (in_wal > 0) {
      wal_bytes_per_sub =
          static_cast<double>(file_size_or_zero(dir + "/submissions.wal")) /
          static_cast<double>(in_wal);
    }
  }
  const double overhead = closed.seconds / untraced_s;

  // Fixed-rate open loop on the live engine in kFixedPhases phases, each
  // summarized on its own (the metrics are medians over phases). In the
  // untraced run a spare closed repetition follows every other phase, so
  // both kinds of repetition sample the whole run.
  std::vector<Summary> fixed_lat;
  std::vector<double> fixed_late;
  std::size_t fixed_refused = 0;
  for (int phase = 0; phase < kFixedPhases; ++phase) {
    probe();
    const OpenOutcome fixed =
        open_loop(*engine, client, kFixedRate, kFixedSubmissions);
    fixed_lat.push_back(fixed.summary.latency_ms.summarize());
    fixed_late.push_back(fixed.summary.lateness_ms.summarize().tail);
    fixed_refused += fixed.refused;
    if (!options.trace && phase % 2 == 0) (void)spare_repetition(false);
  }
  const double closed_rate = median_of(closed_rates);
  result.fail(fixed_refused);

  // Ladder: highest fixed rate whose p99 holds the limit with no refusals
  // and a server that is not falling behind: at the end of the step it runs
  // no later than the limit.
  double sustained = 0.0;
  std::uint64_t ladder_submissions = 0;
  for (const double rate : kLadderRates) {
    probe();
    const auto n = static_cast<std::size_t>(rate * kLadderStepSeconds);
    const OpenOutcome step = open_loop(*engine, client, rate, n);
    ladder_submissions += n;
    const Summary lat = step.summary.latency_ms.summarize();
    const bool holds = step.refused == 0 && lat.tail <= kP99LimitMs &&
                       step.late_end_ms <= kP99LimitMs;
    result.line(format("ladder %8.0f/s: %s = %.3f ms, p50 %.3f ms, "
                       "refused %zu, behind schedule mid %.3f ms end %.3f ms "
                       "-> %s",
                       rate, lat.tail_label().c_str(), lat.tail, lat.median,
                       step.refused, step.late_mid_ms, step.late_end_ms,
                       holds ? "holds" : "fails"));
    if (holds) sustained = rate;
  }

  probe();
  const double peak_rss = peak_rss_mb();
  const Crashed end = crash(engine, client, cfg);
  const Recovered last = recover(cfg);
  if (options.trace) trace::set_enabled(false);
  const wafp::service::ServiceStats& stats = end.stats;
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(recovery_cfg.state_dir);
  const double recovery_s = median_of(recoveries);

  // In-memory witness: replay the accepted submissions, no durability.
  std::uint64_t memory_checksum = 0;
  {
    auto memory = wafp::service::make_engine({}, kShards);
    Client replay{&gen, std::vector<std::uint8_t>(kUsers, 0), {}, 0, 0, 0};
    for (const std::uint32_t i : client.accepted) {
      const TraceGen::Item item = replay.item(i);
      auto got = memory->submit(item.raw).reason;
      while (got == Reject::kQueueFull) {
        memory->pump();
        got = memory->submit(item.raw).reason;
      }
      if (got != Reject::kNone) ++replay.mismatches;
      replay.accepted_user[item.raw.user] = 1;
    }
    memory->pump();
    memory_checksum = memory->component_checksum();
    result.gate(replay.mismatches == 0,
                "in-memory replay accepted every accepted submission",
                replay.mismatches);
  }

  const std::uint64_t attempted = client.submitted + fixed_refused +
                                  closed_submitted + recoveries.size() + 1;
  result.attempt(attempted);
  result.gate(recovery_mismatches == 0,
              format("%zu recoveries of the first closed-phase engine equal "
                     "its durable checksum (%zu differ)",
                     recoveries.size(), recovery_mismatches),
              recovery_mismatches);
  result.gate(client.mismatches + closed_mismatches == 0,
              format("%llu submissions answered as the trace expects "
                     "(%llu wrong)",
                     static_cast<unsigned long long>(client.submitted),
                     static_cast<unsigned long long>(client.mismatches +
                                                     closed_mismatches)),
              client.mismatches + closed_mismatches);
  result.gate(memory_checksum == end.checksum &&
                  end.checksum == last.checksum,
              format("component checksums in-memory %016llx, durable "
                     "%016llx, recovered %016llx agree",
                     static_cast<unsigned long long>(memory_checksum),
                     static_cast<unsigned long long>(end.checksum),
                     static_cast<unsigned long long>(last.checksum)));
  result.gate(stats.applied == client.accepted.size(),
              format("every accepted submission applied (%llu of %zu)",
                     static_cast<unsigned long long>(stats.applied),
                     client.accepted.size()));

  result.line(format("ingest: %u Zipf users over %u families, seed %llu; "
                     "closed %zu, fixed %d x %zu at %.0f/s, ladder %llu",
                     kUsers, kFamilies,
                     static_cast<unsigned long long>(options.seed),
                     kClosedSubmissions, kFixedPhases, kFixedSubmissions,
                     kFixedRate,
                     static_cast<unsigned long long>(ladder_submissions)));
  result.line(format("ingest_sub_per_s = %.1f 1/s (closed loop, %zu subs, "
                     "median of %zu)",
                     closed_rate, kClosedSubmissions, closed_rates.size()));
  result.line(format("ingest_sustained_sub_per_s = %.0f 1/s (ladder, p99 "
                     "limit %.0f ms)",
                     sustained, kP99LimitMs));
  result.line(format("ingest_p50_ms, ingest_p99_ms: p50_ms and tail_ms "
                     "(%s per phase, %zu refused)",
                     fixed_lat.front().tail_label().c_str(), fixed_refused));
  std::string each;
  for (const double r : recoveries) each += format(" %.4f", r);
  result.line(format("recovery_s = %.6f s (median of %zu recoveries of the "
                     "first closed-phase engine:%s)",
                     recovery_s, recoveries.size(), each.c_str()));
  result.line(format("end-state recovery %.6f s, snapshot %ju bytes",
                     last.seconds, end.snapshot_bytes));
  result.line(format("generator lateness p99 = %.4f ms (median of %d "
                     "phases)",
                     median_of(fixed_late), kFixedPhases));
  result.stamp("sustained_sub_per_s", sustained);

  if (options.trace) {
    const auto records = trace::collect();
    const auto totals = trace::totals(records);
    const auto find = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? trace::Totals{} : it->second;
    };
    layers.set("service.submit_s", find("service.submit").total_s);
    layers.set("service.submit_calls",
               static_cast<double>(find("service.submit").count));
    layers.set("service.pump_s", closed.pump_s);
    layers.set("service.snapshot_s", closed.snapshot_s);
    layers.set("service.snapshots", static_cast<double>(stats.snapshots_written));
    layers.set("service.snapshot_bytes",
               static_cast<double>(end.snapshot_bytes));
    layers.set("service.applied", static_cast<double>(stats.applied));
    layers.set("service.wal_appends", static_cast<double>(stats.wal_appends));
    layers.set("service.wal_retries", static_cast<double>(stats.wal_retries));
    layers.set("service.wal_bytes_per_sub", wal_bytes_per_sub);
    layers.set("service.queue_depth_max",
               static_cast<double>(closed.depth_max));
    layers.set("service.rejects.malformed_hash",
               static_cast<double>(stats.rejected_hash));
    layers.set("service.rejects.unknown_vector",
               static_cast<double>(stats.rejected_vector));
    layers.set("service.rejects.timestamp_regression",
               static_cast<double>(stats.rejected_timestamp));
    layers.set("service.rejects.queue_full",
               static_cast<double>(stats.rejected_queue_full));
    layers.set("service.recovery_records",
               static_cast<double>(
                   last.stats.recovered_from_snapshot +
                   last.stats.recovered_from_wal));
    layers.set("collation.clusters", static_cast<double>(last.clusters));
    layers.set("collation.users", static_cast<double>(last.users));
    layers.set("collation.fingerprints",
               static_cast<double>(last.fingerprints));
    layers.set("ingest.gen_late_p99_ms", median_of(fixed_late));
    layers.set("obs.trace_overhead_ratio", overhead);
    result.line(format("closed phase: pump %.3f s of which snapshot %.3f s",
                       closed.pump_s, closed.snapshot_s));
    report_spans(totals, result);
    trace::write_jsonl(options.scratch + "/trace_ingest.jsonl", records);
    layers.report(result);
    return result;
  }
  EndToEnd e2e;
  e2e.setup_s = median_of(setups);
  e2e.peak_rss_mb = peak_rss;
  e2e.work_s = recovery_s;
  e2e.throughput_per_s = closed_rate;
  e2e.latency_ms = fixed_lat;
  report_end_to_end(e2e, result);
  return result;
}

}  // namespace perfbench
