// CollationService: the library-grade online collation engine behind
// examples/tracking_server.cpp.
//
// The paper's collation scheme (§3.2) is an online algorithm — submissions
// stream in and the user↔fingerprint bipartite graph merges clusters as
// they arrive. This service wraps that graph with what a production
// deployment needs and the happy-path demo lacked:
//
//   validate -> enqueue (bounded, backpressure) -> WAL append (retry with
//   backoff) -> apply to graph -> periodic snapshot
//
// Durability model: WAL-before-apply, snapshot-then-truncate. Replay after
// a crash is idempotent (re-uniting an existing user↔fingerprint edge is a
// no-op for the partition), so the snapshot/WAL-truncation race loses
// nothing. Recovery = load snapshot (checksum-verified) + replay WAL;
// the resulting components are bit-identical to an uninterrupted run,
// witnessed by FingerprintGraph::component_checksum().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "collation/fingerprint_graph.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "service/fault_injection.h"
#include "service/snapshot.h"
#include "service/types.h"
#include "service/validator.h"
#include "service/wal.h"

namespace wafp::service {

struct ServiceConfig {
  /// Directory for WAL + snapshot; empty = volatile in-memory service.
  std::string state_dir;

  /// Ingest queue bound; submit() returns kQueueFull beyond it.
  std::size_t queue_capacity = 4096;

  /// Snapshot after this many applied submissions (0 = never snapshot;
  /// recovery then replays the whole WAL).
  std::size_t snapshot_every = 1024;

  /// When true, every WAL append fdatasync()s to disk so records survive an
  /// OS crash, not just a process crash. Default off: benches and tests
  /// measure the flush-only path honestly, and recovery parity never
  /// depended on fd-level sync (the kill model is process death).
  bool fsync_wal = false;

  /// WAL append retry policy for transient failures: total attempts =
  /// 1 + max_append_retries, sleeping retry_backoff * 2^attempt between.
  std::size_t max_append_retries = 3;
  std::chrono::milliseconds retry_backoff{1};

  /// Injectable sleeper so tests assert the backoff schedule without
  /// wall-clock waits; defaults to std::this_thread::sleep_for.
  std::function<void(std::chrono::milliseconds)> sleeper;

  /// Metrics sink for queue depth, ingest->apply latency, WAL timings,
  /// snapshot duration, and recovery counters. nullptr =
  /// obs::MetricsRegistry::global(). Purely observational; pair with
  /// MetricsRegistry::set_clock for deterministic latency tests.
  obs::MetricsRegistry* metrics = nullptr;

  FaultPlan faults;
};

/// Thrown when a WAL append keeps failing past the retry budget: the
/// submission cannot be made durable, so it is not applied.
class WalAppendError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CollationService {
 public:
  /// Construction runs recovery when state_dir holds prior state. Throws
  /// SnapshotCorruptError if the snapshot exists but fails verification.
  explicit CollationService(ServiceConfig config);
  ~CollationService();

  CollationService(const CollationService&) = delete;
  CollationService& operator=(const CollationService&) = delete;

  /// Validate and enqueue one raw submission. Thread-safe. kQueueFull asks
  /// the caller to back off and resubmit (pump() drains the queue).
  SubmitResult submit(const RawSubmission& raw);

  /// Drain up to `max_records` queued submissions into the WAL + graph.
  /// Returns the number applied. Call from one thread at a time (the
  /// background worker counts as that thread while running); the contract
  /// is enforced — a second concurrent caller trips a WAFP_CHECK abort
  /// rather than silently corrupting the mutex-free pump-owned state.
  std::size_t pump(std::size_t max_records = SIZE_MAX);

  /// Background ingestion: a worker thread pumps until stop(). submit()
  /// keeps working concurrently. If a WAL append exhausts its retry budget
  /// the worker records the failure (stats().wal_append_failures) and parks
  /// itself instead of terminating the process; the failed submission stays
  /// queued, and start() may be called again to resume.
  void start();
  void stop();

  /// Flush everything queued, then snapshot if state is dirty. The orderly
  /// shutdown path (the destructor calls it for persistent services).
  void drain_and_checkpoint();

  /// Fault hook: abandon all in-memory state *without* checkpointing, as a
  /// kill -9 would. The next service constructed on the same state_dir
  /// recovers from snapshot + WAL. (In-memory-only services lose
  /// everything, which is the point.)
  void crash();

  [[nodiscard]] ServiceStats stats() const;

  /// Newest timestamp any user's clock has reached (0 if none). Lets a
  /// resuming producer pick timestamps that clear the recovered clocks
  /// instead of tripping kTimestampRegression.
  [[nodiscard]] std::uint64_t max_observed_timestamp() const;

  /// The live collation graph. Queries are safe against a stopped or
  /// pump()-quiescent service; see FingerprintGraph for the threading rules.
  [[nodiscard]] const collation::FingerprintGraph& graph() const {
    return graph_;
  }

  /// Component checksum of the current graph (crash-recovery witness).
  [[nodiscard]] std::uint64_t component_checksum() const {
    return graph_.component_checksum();
  }

  [[nodiscard]] std::size_t cluster_count() const {
    return graph_.cluster_count();
  }
  [[nodiscard]] std::size_t user_count() const {
    return graph_.user_count();
  }
  [[nodiscard]] std::size_t fingerprint_count() const {
    return graph_.fingerprint_count();
  }
  [[nodiscard]] std::vector<std::size_t> cluster_user_counts() const {
    return graph_.cluster_user_counts();
  }

  /// Probe matching, forwarded to the graph (§3.3 "fingerprint match").
  [[nodiscard]] std::optional<std::size_t> match(
      std::span<const util::Digest> probe) const {
    return graph_.match(probe);
  }

  [[nodiscard]] std::optional<std::size_t> user_component(
      std::uint32_t user) const {
    return graph_.user_component(user);
  }

 private:
  /// One queued record plus its enqueue timestamp, so pump() can observe
  /// the ingest->apply latency the moment a submission reaches the graph.
  struct QueuedSubmission {
    Submission s;
    std::uint64_t enqueued_ns = 0;
  };

  [[nodiscard]] std::string wal_path() const;
  [[nodiscard]] std::string snapshot_path() const;
  void recover();
  void append_with_retry(const Submission& s);
  void apply(const Submission& s);
  void maybe_snapshot();
  void checkpoint();

  // Pump-thread-owned state: graph_, wal_, applied_since_snapshot_ and the
  // append ordinal of fault_clock_ are only touched by the single thread
  // allowed inside pump() (see pump()'s contract) plus the constructor's
  // recovery path; they carry no mutex on purpose — readers of graph() must
  // quiesce the service first, exactly as documented above.
  ServiceConfig config_;

  /// Resolved metrics sink plus instrument references (heap-stable in the
  /// registry, so resolving once at construction keeps the hot paths off
  /// the registry maps).
  obs::MetricsRegistry& metrics_;
  obs::Gauge& queue_depth_gauge_;
  obs::Histogram& ingest_apply_ns_;
  obs::Histogram& wal_append_ns_;
  obs::Histogram& snapshot_ns_;
  obs::Counter& wal_appends_counter_;
  obs::Counter& wal_retries_counter_;
  obs::Counter& applied_counter_;
  obs::Counter& recovered_snapshot_counter_;
  obs::Counter& recovered_wal_counter_;

  collation::FingerprintGraph graph_;
  /// Null while the service runs without durable state (empty state_dir).
  /// unique_ptr rather than optional: clang-tidy's
  /// bugprone-unchecked-optional-access cannot see that the null checks in
  /// pump-thread methods dominate every dereference, and a pointer states
  /// the either-absent-or-stable ownership more directly anyway.
  std::unique_ptr<Wal> wal_;
  FaultClock fault_clock_;
  std::uint64_t applied_since_snapshot_ = 0;

  mutable util::Mutex mu_;
  SubmissionValidator validator_ WAFP_GUARDED_BY(mu_);
  std::deque<QueuedSubmission> queue_ WAFP_GUARDED_BY(mu_);
  ServiceStats stats_ WAFP_GUARDED_BY(mu_);
  bool crashed_ WAFP_GUARDED_BY(mu_) = false;

  util::Mutex worker_mu_;  // serializes join/launch of worker_
  std::thread worker_ WAFP_GUARDED_BY(worker_mu_);
  std::atomic<bool> running_{false};
  /// Owner flag backing pump()'s single-caller contract; set for the
  /// duration of each pump() call and WAFP_CHECKed on entry.
  std::atomic<bool> pump_active_{false};
};

}  // namespace wafp::service
