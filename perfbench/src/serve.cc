// Workload `serve`: a duplicate-heavy render stream (visitors x 7 audio
// vectors x jitter 0/1, shuffled) through serve::RenderService on a fresh
// RenderCache. Phases: a cold closed burst (everything admitted, then the
// workers start: the coalescing makespan), an open-loop cold phase at a
// fixed rate timed from each due time, and a warm closed-loop re-serve by
// one caller that must build nothing. Bursts and warm windows alternate
// over the run, so their medians sample all of it.
#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "dsp/fft.h"
#include "fingerprint/vector.h"
#include "open_loop.h"
#include "platform/catalog.h"
#include "platform/population.h"
#include "serve/render_service.h"
#include "trace.h"
#include "webaudio/periodic_wave.h"

namespace perfbench {
namespace {

using wafp::serve::Admit;
using wafp::serve::RenderService;

// The audience is fixed, so every seed renders the same classes; the seed
// sets the order page loads arrive in.
constexpr std::size_t kVisitors = 80;
constexpr std::uint64_t kAudienceSeed = 99;
// Each visitor loads the page this many times: most requests repeat a
// class already rendered, as on a real site.
constexpr std::size_t kVisits = 4;
// Every round times a cold burst and kWarmWindowsPerRound warm windows; the
// last round's stream also runs the open-loop phase. A burst's median
// request swings by half between rounds (the seeded order decides which
// classes it waits behind), so the median over rounds needs many of them.
constexpr int kRounds = 9;
constexpr double kPageRate = 40.0;  // page loads/s, open loop
constexpr double kWarmSeconds = 0.4;
constexpr int kWarmWindowsPerRound = 2;
// Requests the warm caller keeps in flight; below the default admission
// queue capacity (1024).
constexpr std::size_t kWarmWindow = 256;
constexpr std::size_t kParityStride = 17;
// Set-ups timed before each round, spread over the run.
constexpr int kSetupsPerRound = 6;

struct Request {
  const wafp::fingerprint::AudioFingerprintVector* vector;
  const wafp::platform::PlatformProfile* profile;
  std::uint32_t jitter;
};

/// Served digests checked against a direct render.
struct Parity {
  std::size_t sampled = 0;
  std::size_t mismatches = 0;
};

/// Check every kParityStride-th served digest of `stream` (null: refused)
/// against `direct`, a RenderCache the service never touches. Runs outside
/// the timed sections.
Parity check_parity(const std::vector<Request>& stream,
                    const std::vector<const wafp::util::Digest*>& served,
                    wafp::fingerprint::RenderCache& direct) {
  Parity parity;
  for (std::size_t i = 0; i < stream.size(); i += kParityStride) {
    if (served[i] == nullptr) continue;
    const Request& r = stream[i];
    ++parity.sampled;
    if (*served[i] != direct.get(*r.vector, *r.profile, r.jitter)) {
      ++parity.mismatches;
    }
  }
  return parity;
}

/// Requests of one page load: every audio vector at jitter 0 and 1.
constexpr std::size_t kPerPage = 14;

/// The audience's page loads, kVisits per visitor, flattened into
/// requests (page k is requests [k * kPerPage, (k + 1) * kPerPage)). The
/// order is seeded by (seed, round): each visitor's first visit falls in
/// its own slot of the phase and the repeat visits at uniform times after
/// it, so new render classes arrive at a steady rate instead of crowding
/// the start. Visitors drawn from the catalog share audio
/// stacks, so even first visits are partly cache hits.
std::vector<Request> make_stream(const wafp::platform::Population& population,
                                 std::uint64_t seed, int round) {
  std::uint64_t state = mix64(mix64(seed ^ 0x5E7E5EULL) + round);
  const auto uniform = [&state] {
    state = mix64(state);
    return static_cast<double>(state >> 11) * (1.0 / 9007199254740992.0);
  };
  struct Visit {
    double when;
    std::size_t visitor;
  };
  // First visits are stratified (one per 1/visitors slot, visitors in a
  // seeded order) so new classes never arrive in clumps.
  std::vector<std::size_t> slot(population.size());
  for (std::size_t v = 0; v < slot.size(); ++v) slot[v] = v;
  for (std::size_t i = slot.size(); i > 1; --i) {
    std::swap(slot[i - 1], slot[mix64(state += 0x9E37ULL) % i]);
  }
  std::vector<Visit> visits;
  for (std::size_t v = 0; v < population.size(); ++v) {
    const double first = (static_cast<double>(slot[v]) + uniform()) /
                         static_cast<double>(population.size());
    visits.push_back({first, v});
    for (std::size_t k = 1; k < kVisits; ++k) {
      visits.push_back({first + (1.0 - first) * uniform(), v});
    }
  }
  std::sort(visits.begin(), visits.end(), [](const Visit& a, const Visit& b) {
    return a.when != b.when ? a.when < b.when : a.visitor < b.visitor;
  });
  std::vector<Request> stream;
  stream.reserve(visits.size() * kPerPage);
  for (const Visit& visit : visits) {
    const auto& profile = population.user(visit.visitor).profile;
    for (const auto id : wafp::fingerprint::audio_vector_ids()) {
      for (const std::uint32_t jitter : {0u, 1u}) {
        stream.push_back({&wafp::fingerprint::audio_vector(id), &profile,
                          jitter});
      }
    }
  }
  return stream;
}

unsigned render_workers(const Options& options) {
  // The generator and the in-order waiter mostly sleep: they run on the
  // CPUs left outside options.threads.
  return options.threads;
}

struct BurstOutcome {
  double seconds = 0.0;  // makespan
  double coalesce_ratio = 0.0;
  Samples latency_ms;  // per request, from the burst's start to its response
  Parity parity;
};

/// A flash crowd: the whole stream is due at once. Every request is
/// admitted with the workers stopped (so every duplicate joins one task),
/// then the workers start. The client collects responses in the order the
/// service admitted their tasks (the order it works through them), so a
/// response is rarely held behind a later one, and times each request from
/// the burst's start.
BurstOutcome cold_burst(const std::vector<Request>& stream, unsigned workers,
                        wafp::fingerprint::RenderCache& direct) {
  wafp::fingerprint::RenderCache cache;
  wafp::serve::RenderServiceConfig config;
  config.workers = workers;
  config.queue_capacity = stream.size();
  config.start_workers = false;
  RenderService service(cache, config);
  std::vector<RenderService::Ticket> tickets(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Request& r = stream[i];
    if (service.submit(*r.vector, *r.profile, r.jitter, tickets[i]) !=
        Admit::kAccepted) {
      std::abort();  // the queue holds the whole stream
    }
  }
  // Task admission order: a request joins the task of its class's first
  // occurrence in the stream.
  std::unordered_map<wafp::fingerprint::RenderClassKey, std::size_t,
                     wafp::fingerprint::RenderClassKeyHash>
      first_of_class;
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (task, request)
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Request& r = stream[i];
    const auto [it, inserted] = first_of_class.try_emplace(
        wafp::fingerprint::make_render_class_key(*r.vector, *r.profile,
                                                 r.jitter),
        i);
    order.emplace_back(it->second, i);
  }
  std::sort(order.begin(), order.end());
  BurstOutcome out;
  out.coalesce_ratio = service.stats().coalesce_ratio();
  out.latency_ms.reserve(stream.size());
  std::vector<const wafp::util::Digest*> served(stream.size(), nullptr);
  const Stopwatch sw;
  service.start();
  for (const auto& [task, request] : order) {
    served[request] = &service.wait(tickets[request]);
    out.latency_ms.add(sw.seconds() * 1e3);
  }
  out.seconds = sw.seconds();
  service.stop();
  out.parity = check_parity(stream, served, direct);
  return out;
}

struct ColdOutcome {
  OpenLoopSummary summary;
  std::vector<const wafp::util::Digest*> results;
  std::size_t refused = 0;
  std::size_t depth_max = 0;
  wafp::serve::ServeStats stats;
};

/// Open loop over page loads at kPageRate: the generator (this thread)
/// submits a page's requests at its due time; one waiter thread waits for
/// the pages in order (a client that renders pages as they complete) and
/// stamps a page done when its last request is.
ColdOutcome cold_open_loop(RenderService& service,
                           const std::vector<Request>& stream) {
  const std::size_t pages = stream.size() / kPerPage;
  OpenLoopTimes times(pages);
  std::vector<RenderService::Ticket> tickets(stream.size());
  ColdOutcome out;
  out.results.assign(stream.size(), nullptr);
  // Pages issued so far; the waiter sleeps until the page it needs is out.
  std::mutex issued_mu;
  std::condition_variable issued_cv;
  std::size_t issued = 0;
  std::thread waiter([&] {
    for (std::size_t k = 0; k < pages; ++k) {
      {
        std::unique_lock<std::mutex> lock(issued_mu);
        issued_cv.wait(lock, [&] { return issued > k; });
      }
      const trace::Span span("serve.wait", trace::kCurrentParent, k + 1);
      for (std::size_t i = k * kPerPage; i < (k + 1) * kPerPage; ++i) {
        if (tickets[i].valid()) out.results[i] = &service.wait(tickets[i]);
      }
      if (times.done[k] != OpenLoopTimes::kRefused) times.done[k] = now_ns();
    }
  });
  run_open_loop(kPageRate, times, [&](std::size_t k) {
    for (std::size_t i = k * kPerPage; i < (k + 1) * kPerPage; ++i) {
      const Request& r = stream[i];
      Admit admit;
      {
        const trace::Span span("serve.submit", trace::kCurrentParent, k + 1);
        admit = service.submit(*r.vector, *r.profile, r.jitter, tickets[i]);
      }
      if (admit != Admit::kAccepted) {
        ++out.refused;
        times.done[k] = OpenLoopTimes::kRefused;
      }
    }
    out.depth_max = std::max(out.depth_max, service.queue_depth());
    {
      const std::lock_guard<std::mutex> lock(issued_mu);
      issued = k + 1;
    }
    issued_cv.notify_one();
  });
  waiter.join();
  out.summary = summarize(times);
  out.stats = service.stats();
  return out;
}

/// One caller re-serves the stream with up to kWarmWindow requests in
/// flight (it waits for the oldest before submitting past the window) until
/// kWarmSeconds have passed; returns requests per second. If `digests` is
/// set, it receives every digest served on the first pass over the stream.
double warm_reserve(RenderService& service,
                    const std::vector<Request>& stream, std::size_t& served,
                    std::vector<const wafp::util::Digest*>* digests = nullptr) {
  std::vector<RenderService::Ticket> ring(kWarmWindow);
  std::vector<std::size_t> in_slot(kWarmWindow);  // request a slot holds
  if (digests != nullptr) digests->assign(stream.size(), nullptr);
  const auto drain = [&](std::size_t s) {
    const wafp::util::Digest& d = service.wait(ring[s]);
    if (digests != nullptr) (*digests)[in_slot[s]] = &d;
  };
  const Stopwatch sw;
  served = 0;
  do {
    const trace::Span span("serve.reserve");
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::size_t s = i % kWarmWindow;
      if (ring[s].valid()) drain(s);
      const Request& r = stream[i];
      if (service.submit(*r.vector, *r.profile, r.jitter, ring[s]) !=
          Admit::kAccepted) {
        std::abort();  // the window is smaller than the admission queue
      }
      in_slot[s] = i;
    }
    for (std::size_t s = 0; s < kWarmWindow; ++s) {
      if (ring[s].valid()) drain(s);
    }
    served += stream.size();
    digests = nullptr;
  } while (sw.seconds() < kWarmSeconds);
  return static_cast<double>(served) / sw.seconds();
}

double setup_once(const Options& options) {
  const Stopwatch sw;
  const wafp::platform::DeviceCatalog catalog;
  const wafp::platform::Population population(catalog, kVisitors,
                                              kAudienceSeed);
  wafp::fingerprint::RenderCache cache;
  wafp::serve::RenderServiceConfig config;
  config.workers = render_workers(options);
  RenderService service(cache, config);
  const double s = sw.seconds();
  service.stop();
  return s;
}

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  stamp_host(options, result);
  const unsigned workers = render_workers(options);
  result.stamp("visitors", static_cast<double>(kVisitors));
  result.stamp("audience_seed", static_cast<double>(kAudienceSeed));
  result.stamp("rounds", static_cast<double>(kRounds));
  result.stamp("page_rate_per_s", kPageRate);
  result.stamp("requests_per_page", static_cast<double>(kPerPage));
  result.stamp("render_workers", static_cast<double>(workers));
  result.stamp("cache_state",
               "bursts and open loop: a fresh RenderCache each (cold; "
               "process FFT/wave caches warmed by the untimed first warm "
               "pass); warm windows: a cache holding every class");

  std::vector<double> setups;
  const wafp::platform::DeviceCatalog catalog;
  const wafp::platform::Population audience(catalog, kVisitors,
                                            kAudienceSeed);
  Layers layers;
  // Direct renders of sampled requests, the parity witness of every phase.
  wafp::fingerprint::RenderCache direct;
  std::vector<std::pair<std::string, Parity>> parity;  // per checked phase

  // The warm service: its cache holds every class of the fixed audience
  // after one untimed re-serve, which also grows its task slab pool to the
  // warm caller's pipeline depth and warms the process-wide FFT and wave
  // caches, so every burst below starts from the same process state. Its
  // workers run only during warm windows, so the process never has more
  // render workers than render_workers() allows.
  wafp::fingerprint::RenderCache warm_cache;
  wafp::serve::RenderServiceConfig warm_config;
  warm_config.workers = workers;
  RenderService warm_service(warm_cache, warm_config);
  std::size_t warm_served = 0;
  (void)warm_reserve(warm_service, make_stream(audience, options.seed, 0),
                     warm_served);
  warm_service.stop();

  // Rounds: each replays the audience's requests in its own seeded order,
  // as a cold burst on a fresh cache and as warm windows that must build
  // nothing.
  std::vector<double> burst_s;
  double burst_coalesce = 0.0;
  std::vector<Summary> burst_lat;  // one per round
  std::vector<double> warm_rates;  // one per warm window
  bool build_free = true;
  std::vector<Request> stream;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      setups.push_back(setup_once(options));
    }
    stream = make_stream(audience, options.seed, round);
    const BurstOutcome burst = cold_burst(stream, workers, direct);
    parity.emplace_back(format("round %d cold burst", round), burst.parity);
    burst_s.push_back(burst.seconds);
    burst_coalesce = burst.coalesce_ratio;
    burst_lat.push_back(burst.latency_ms.summarize());
    warm_service.start();
    for (int w = 0; w < kWarmWindowsPerRound; ++w) {
      const wafp::dsp::FftCounters fft_before = wafp::dsp::fft_counters();
      const std::uint64_t waves_before =
          wafp::webaudio::periodic_wave_builds();
      const std::uint64_t slabs_before = warm_service.slab_builds();
      const std::size_t misses_before = warm_cache.misses();
      const bool sample = round == 0 && w == 0;
      std::vector<const wafp::util::Digest*> digests;
      std::size_t served = 0;
      warm_rates.push_back(warm_reserve(warm_service, stream, served,
                                        sample ? &digests : nullptr));
      warm_served += served;
      const wafp::dsp::FftCounters fft_after = wafp::dsp::fft_counters();
      build_free = build_free &&
                   fft_after.twiddle_builds == fft_before.twiddle_builds &&
                   fft_after.scratch_growths == fft_before.scratch_growths &&
                   wafp::webaudio::periodic_wave_builds() == waves_before &&
                   warm_service.slab_builds() == slabs_before &&
                   warm_cache.misses() == misses_before;
      if (sample) {
        parity.emplace_back("warm re-serve",
                            check_parity(stream, digests, direct));
      }
    }
    warm_service.stop();
  }
  const double warm_rate = median_of(warm_rates);

  // Open loop over the last round's stream on a fresh cache (the traced
  // phase of the traced run).
  wafp::fingerprint::RenderCache cold_cache;
  ColdOutcome cold;
  ProgramCounters cold_delta;
  {
    wafp::serve::RenderServiceConfig config;
    config.workers = workers;
    RenderService service(cold_cache, config);
    const ProgramCounters before = ProgramCounters::read();
    if (options.trace) trace::set_enabled(true);
    cold = cold_open_loop(service, stream);
    trace::set_enabled(false);
    cold_delta = ProgramCounters::read().since(before);
    service.stop();
  }
  const Summary cold_lat = cold.summary.latency_ms.summarize();
  const double cold_late = cold.summary.lateness_ms.summarize().tail;
  result.fail(cold.refused);
  result.gate(cold.stats.completed == cold.stats.classes,
              format("open loop: every admitted class rendered (%zu of %zu)",
                     cold.stats.completed, cold.stats.classes));
  parity.emplace_back("open loop", check_parity(stream, cold.results, direct));

  double overhead = 0.0;
  if (options.trace) {
    std::size_t traced_served = 0;
    warm_service.start();
    trace::set_enabled(true);
    const double traced_rate =
        warm_reserve(warm_service, stream, traced_served);
    trace::set_enabled(false);
    warm_service.stop();
    warm_served += traced_served;
    overhead = warm_rate / traced_rate;
  }
  const double peak_rss = peak_rss_mb();

  result.attempt((kRounds + 1) * stream.size() + warm_served);
  for (const auto& [phase, checked] : parity) {
    result.gate(checked.mismatches == 0,
                format("%s: %zu sampled served digests equal a direct "
                       "RenderCache::get (%zu differ)",
                       phase.c_str(), checked.sampled, checked.mismatches),
                checked.mismatches);
  }
  result.gate(build_free,
              "warm re-serve built nothing (FFT twiddles/scratch, periodic "
              "waves, slabs, cache misses flat)",
              build_free ? 0 : warm_served);

  result.line(format("serve: %zu visitors -> %zu requests per round, %d "
                     "rounds, seed %llu, %u render workers",
                     kVisitors, stream.size(), kRounds,
                     static_cast<unsigned long long>(options.seed), workers));
  result.line(format("cold burst: %.6f s (median of %d), coalesce ratio %.3f",
                     median_of(burst_s), kRounds, burst_coalesce));
  result.line(format("open loop %.0f pages/s, page loads from due time to "
                     "last response: p50 %.4f ms, %s %.4f ms; %zu refused "
                     "requests",
                     kPageRate, cold_lat.median,
                     cold_lat.tail_label().c_str(), cold_lat.tail,
                     cold.refused));
  result.line(format("serve_p50_ms, serve_p99_ms: p50_ms and tail_ms, the "
                     "flash-crowd request latency (%s a burst, median of "
                     "%d)",
                     burst_lat.front().tail_label().c_str(), kRounds));
  result.line(format("serve_warm_req_per_s = %.1f 1/s (median of %zu "
                     "windows, %zu requests)",
                     warm_rate, warm_rates.size(), warm_served));
  result.line(format("generator lateness tail = %.4f ms (%s)", cold_late,
                     cold_lat.tail_label().c_str()));

  if (options.trace) {
    const auto records = trace::collect();
    const auto totals = trace::totals(records);
    const auto find = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? trace::Totals{} : it->second;
    };
    // Layer readings cover the last (traced) round's open-loop phase.
    report_render_layers(cold_delta, layers);
    layers.set("serve.submit_s", find("serve.submit").total_s);
    layers.set("serve.wait_s", find("serve.wait").total_s);
    layers.set("serve.coalesce_ratio", cold.stats.coalesce_ratio());
    layers.set("serve.batches", static_cast<double>(cold.stats.batches));
    layers.set("serve.classes_per_batch",
               cold.stats.batches == 0
                   ? 0.0
                   : static_cast<double>(cold.stats.completed) /
                         static_cast<double>(cold.stats.batches));
    layers.set("serve.rejected_queue_full",
               static_cast<double>(cold.stats.rejected_queue_full));
    layers.set("serve.queue_depth_max", static_cast<double>(cold.depth_max));
    layers.set("serve.gen_late_p99_ms", cold_late);
    layers.set("obs.trace_overhead_ratio", overhead);
    report_spans(totals, result);
    trace::write_jsonl(options.scratch + "/trace_serve.jsonl", records);
    layers.report(result);
    return result;
  }
  EndToEnd e2e;
  e2e.setup_s = median_of(setups);
  e2e.peak_rss_mb = peak_rss;
  e2e.work_s = median_of(burst_s);
  e2e.throughput_per_s = warm_rate;
  e2e.latency_ms = burst_lat;
  report_end_to_end(e2e, result);
  return result;
}

}  // namespace perfbench
