// RenderService: the continuous-batching render serving layer.
//
// The paper's workload is duplicate-heavy by construction: thousands of
// users share a handful of (audio stack, vector, jitter) render classes, so
// an online deployment that renders per request wastes nearly all of its
// work. This service generalizes the two existing dedup layers into a
// cross-request one:
//
//   admission  — a bounded queue with kQueueFull backpressure, mirroring
//                CollationService::submit's protocol: the caller backs off
//                and resubmits instead of growing an unbounded buffer.
//   coalescing — concurrent in-flight requests for one render class
//                collapse onto a single Task (RenderCache deduplicates
//                per key by claim and dedup wait; this deduplicates
//                across callers before a render is even scheduled, so N
//                requests admit at most one unit of queued work).
//   batching   — workers drain the queue in batches sorted archetype-major
//                (BatchRenderer's ordering) so consecutive renders share
//                engine parts, then render through the shared RenderCache —
//                which is what keeps served digests bit-identical to a
//                direct RenderCache::get.
//   recycling  — Task slots come from a SlabPool, so steady-state serving
//                allocates nothing (audited by slab_builds(), extending the
//                PR 6 build-free counter audit to the serving path).
//
// Threading contract: submit()/render()/wait() are thread-safe. stop()
// drains every queued task before returning, but callers must quiesce
// their own submitters first — a render() blocked on backpressure aborts
// (WAFP_CHECK) rather than deadlocking if the service stops under it, and
// a submit() racing the last worker's exit would wait until the next
// start(). Each accepted Ticket must be wait()ed exactly once; the digest
// reference returned stays valid for the RenderCache's lifetime.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fingerprint/render_cache.h"
#include "obs/metrics.h"
#include "serve/slab_pool.h"
#include "util/function_effects.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace wafp::serve {

struct RenderServiceConfig {
  /// Queued-class bound; submit() returns kQueueFull beyond it. Coalesced
  /// joins never count against the bound — they add no queued work.
  std::size_t queue_capacity = 1024;

  /// Render worker threads. 0 = util::default_thread_count().
  std::size_t workers = 0;

  /// Most classes one worker drains per batch. Smaller batches spread load
  /// across workers; larger ones amortize wakeups and keep archetype runs
  /// together.
  std::size_t max_batch = 32;

  /// When false the constructor does not start(): tests and benches admit
  /// a whole request stream first (every duplicate coalesces
  /// deterministically) and only then start the workers.
  bool start_workers = true;

  /// Metrics sink; nullptr = obs::MetricsRegistry::global().
  obs::MetricsRegistry* metrics = nullptr;
};

enum class Admit { kAccepted, kQueueFull };

struct ServeStats {
  std::size_t requests = 0;   // accepted submissions
  std::size_t coalesced = 0;  // accepted submissions that joined an
                              // in-flight class instead of queueing work
  std::size_t classes = 0;    // tasks admitted (distinct in-flight classes)
  std::size_t completed = 0;  // tasks rendered
  std::size_t batches = 0;    // worker batches executed
  std::size_t rejected_queue_full = 0;

  /// Accepted requests per unit of queued work; > 1 on duplicate-heavy
  /// streams is the serving layer's whole reason to exist.
  [[nodiscard]] double coalesce_ratio() const {
    return classes == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(classes);
  }
};

class RenderService {
 private:
  struct Task;

 public:
  /// Handle for one accepted submission. Move-only so two owners can never
  /// drain the same task's waiter count; wait() consumes the ticket.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& o) noexcept : task_(o.task_) { o.task_ = nullptr; }
    Ticket& operator=(Ticket&& o) noexcept {
      task_ = o.task_;
      o.task_ = nullptr;
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    [[nodiscard]] bool valid() const { return task_ != nullptr; }

   private:
    friend class RenderService;
    explicit Ticket(Task* task) : task_(task) {}
    Task* task_ = nullptr;
  };

  /// The service renders through (and shares dedup with) `cache`, which
  /// must outlive it. Starts workers unless config.start_workers is false.
  explicit RenderService(fingerprint::RenderCache& cache,
                         RenderServiceConfig config = {});
  ~RenderService();

  RenderService(const RenderService&) = delete;
  RenderService& operator=(const RenderService&) = delete;

  /// Admit one render request. kAccepted fills `ticket` (coalescing onto an
  /// in-flight class when one exists); kQueueFull asks the caller to back
  /// off and resubmit, exactly like CollationService::submit.
  ///
  /// Lifetime: `vector` and `profile` are captured by pointer and must stay
  /// alive and unmoved until the class's render completes. Vectors from
  /// audio_vector()/VectorRegistry are process-lifetime singletons, so only
  /// `profile` needs care.
  Admit submit(const fingerprint::AudioFingerprintVector& vector,
               const platform::PlatformProfile& profile,
               std::uint32_t jitter_state, Ticket& ticket);

  /// Block until the ticket's render completes and return its digest
  /// (valid for the RenderCache's lifetime). Consumes the ticket; call
  /// exactly once per accepted submit. Requires workers to run eventually
  /// (start(), or start_workers at construction).
  const util::Digest& wait(Ticket& ticket);

  /// Blocking convenience: submit (sleeping out kQueueFull backpressure)
  /// then wait. Aborts rather than deadlocks if the service is stopping
  /// while the queue is full.
  const util::Digest& render(const fingerprint::AudioFingerprintVector& vector,
                             const platform::PlatformProfile& profile,
                             std::uint32_t jitter_state);

  /// Start the worker pool (idempotent). stop() drains the queue — every
  /// already-admitted task completes — then joins the workers (idempotent;
  /// the destructor stops too).
  void start();
  void stop();

  [[nodiscard]] ServeStats stats() const;
  /// Tasks admitted but not yet picked up by a worker.
  [[nodiscard]] std::size_t queue_depth() const;
  /// SlabPool slabs ever built — the serving half of the steady-state
  /// build-free audit (see tests/serve/serve_steady_state_test.cc).
  [[nodiscard]] std::uint64_t slab_builds() const;
  /// Worker-pool degree this service starts.
  [[nodiscard]] std::size_t worker_count() const { return worker_count_; }

 private:
  /// One in-flight render class. Slot-pooled; every field is guarded by
  /// mu_ (workers read vector/profile/key between the pop and the
  /// completion of a batch, when no submitter can touch the task — it left
  /// the queue, and coalescing joins only bump waiters/joins).
  struct Task {
    fingerprint::RenderClassKey key;
    const fingerprint::AudioFingerprintVector* vector = nullptr;
    const platform::PlatformProfile* profile = nullptr;
    const util::Digest* result = nullptr;
    bool done = false;
    std::size_t waiters = 0;  // accepted submits not yet drained by wait()
    std::size_t joins = 1;    // total submissions this task absorbed
    std::uint64_t admitted_ns = 0;
  };

  Admit submit_locked(const fingerprint::AudioFingerprintVector& vector,
                      const platform::PlatformProfile& profile,
                      std::uint32_t jitter_state, Ticket& ticket)
      WAFP_REQUIRES(mu_);
  void worker_loop();
  /// Renders a popped batch through the shared cache, outside mu_. This is
  /// the serving hot loop: on a warm cache it is lock-bump-and-return per
  /// task, and WAFP_NONALLOCATING makes wafp_lint hold it (and everything
  /// it reaches) to the steady-state build-free contract the slab/counter
  /// audits check dynamically.
  void render_batch(std::span<Task* const> batch) WAFP_NONALLOCATING;

  fingerprint::RenderCache& cache_;
  RenderServiceConfig config_;
  std::size_t worker_count_;

  obs::MetricsRegistry& metrics_;
  obs::Gauge& queue_depth_gauge_;
  obs::Histogram& batch_size_hist_;
  obs::Histogram& coalesced_per_class_hist_;
  obs::Histogram& request_ns_hist_;
  obs::Counter& requests_counter_;
  obs::Counter& coalesced_counter_;
  obs::Counter& classes_counter_;
  obs::Counter& completed_counter_;
  obs::Counter& batches_counter_;
  obs::Counter& rejected_counter_;

  mutable util::Mutex mu_;
  util::CondVar work_cv_;   // workers: queue went non-empty / stopping
  util::CondVar done_cv_;   // waiters: some batch completed
  util::CondVar space_cv_;  // backpressured render(): queue space freed
  std::deque<Task*> queue_ WAFP_GUARDED_BY(mu_);
  std::unordered_map<fingerprint::RenderClassKey, Task*,
                     fingerprint::RenderClassKeyHash>
      inflight_ WAFP_GUARDED_BY(mu_);
  SlabPool<Task> pool_ WAFP_GUARDED_BY(mu_);
  ServeStats stats_ WAFP_GUARDED_BY(mu_);
  bool stopping_ WAFP_GUARDED_BY(mu_) = false;

  util::Mutex workers_mu_;  // serializes start()/stop()
  std::vector<std::thread> threads_ WAFP_GUARDED_BY(workers_mu_);
};

}  // namespace wafp::serve
