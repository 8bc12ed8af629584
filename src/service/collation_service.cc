#include "service/collation_service.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "obs/span.h"
#include "util/check.h"

namespace wafp::service {

CollationService::CollationService(ServiceConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics ? *config_.metrics
                               : obs::MetricsRegistry::global()),
      queue_depth_gauge_(metrics_.gauge(
          "wafp_service_queue_depth", "Submissions waiting in the ingest "
                                      "queue")),
      ingest_apply_ns_(metrics_.histogram(
          "wafp_service_ingest_apply_ns",
          "Latency from submit() enqueue to graph apply (ns)")),
      wal_append_ns_(metrics_.histogram(
          "wafp_wal_append_ns",
          "One WAL append attempt, write through flush (ns)")),
      snapshot_ns_(metrics_.histogram("wafp_service_snapshot_ns",
                                      "Checkpoint (snapshot write + WAL "
                                      "truncate) duration (ns)")),
      wal_appends_counter_(metrics_.counter("wafp_wal_appends_total",
                                            "Successful WAL record writes")),
      wal_retries_counter_(metrics_.counter(
          "wafp_wal_retries_total", "Transient WAL append failures retried")),
      applied_counter_(metrics_.counter(
          "wafp_service_applied_total",
          "Submissions applied to the collation graph (excluding recovery "
          "replay)")),
      recovered_snapshot_counter_(metrics_.counter(
          "wafp_service_recovered_from_snapshot_total",
          "Submissions restored from the snapshot at recovery")),
      recovered_wal_counter_(metrics_.counter(
          "wafp_service_recovered_from_wal_total",
          "Submissions replayed from the WAL at recovery")) {
  if (!config_.sleeper) {
    config_.sleeper = [](std::chrono::milliseconds d) {
      std::this_thread::sleep_for(d);
    };
  }
  if (!config_.state_dir.empty()) {
    std::filesystem::create_directories(config_.state_dir);
    recover();
    // Open the WAL for appending only after replay read it.
    wal_ = std::make_unique<Wal>(wal_path(), &metrics_, config_.fsync_wal);
  }
}

CollationService::~CollationService() {
  stop();
  bool crashed = false;
  {
    util::MutexLock lock(mu_);
    crashed = crashed_;
  }
  if (!crashed && wal_ != nullptr) {
    try {
      drain_and_checkpoint();
    } catch (...) {
      // Destructors must not throw; an uncheckpointed tail stays in the
      // WAL, which recovery replays — nothing durable is lost.
    }
  }
}

std::string CollationService::wal_path() const {
  return (std::filesystem::path(config_.state_dir) / "submissions.wal")
      .string();
}

std::string CollationService::snapshot_path() const {
  return (std::filesystem::path(config_.state_dir) / "graph.snapshot")
      .string();
}

void CollationService::recover() {
  WAFP_SPAN_IN(metrics_, "service/recover");
  // Runs from the constructor, before any other thread can exist; the lock
  // is uncontended and exists so validator_/stats_ writes satisfy their
  // GUARDED_BY(mu_) contract without an analysis escape hatch.
  util::MutexLock lock(mu_);
  const auto snapshot = load_snapshot(snapshot_path());
  if (snapshot.has_value()) {
    graph_ = collation::FingerprintGraph::import_state(snapshot->graph);
    for (const auto& [user, ts] : snapshot->user_clocks) {
      validator_.observe_timestamp(user, ts);
    }
    stats_.applied = snapshot->applied;
    stats_.recovered_from_snapshot = snapshot->applied;
    recovered_snapshot_counter_.inc(snapshot->applied);
  }
  const WalReplay replay = Wal::replay(wal_path());
  for (const Submission& s : replay.records) {
    validator_.observe_timestamp(s.user, s.timestamp);
    graph_.add_observation(s.user, s.efp);
    ++stats_.applied;
    ++stats_.recovered_from_wal;
    ++applied_since_snapshot_;
  }
  recovered_wal_counter_.inc(replay.records.size());
  // A torn tail (or missing header) must be rewritten away before the WAL
  // reopens for append: a record appended onto a partial final line would
  // merge with it, and the *next* replay would stop at that merged line and
  // silently discard every valid record written after the tear.
  if (replay.needs_repair()) {
    Wal::repair(wal_path(), replay);
    stats_.wal_tail_lines_dropped += replay.corrupt_tail_lines;
  }
  // Note: if a crash hit between snapshot rename and WAL truncation, the
  // replayed records overlap the snapshot. add_observation is idempotent on
  // the partition, so the components are still exact; only the applied
  // counter can overcount across that narrow window.
}

SubmitResult CollationService::submit(const RawSubmission& raw) {
  util::MutexLock lock(mu_);
  ++stats_.submitted;
  if (crashed_) return {Reject::kShutdown};

  Submission s;
  const Reject reason = validator_.validate(raw, s);
  switch (reason) {
    case Reject::kMalformedHash: ++stats_.rejected_hash; return {reason};
    case Reject::kUnknownVector: ++stats_.rejected_vector; return {reason};
    case Reject::kTimestampRegression:
      ++stats_.rejected_timestamp;
      return {reason};
    default: break;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.rejected_queue_full;
    return {Reject::kQueueFull};
  }

  ++stats_.accepted;
  validator_.observe_timestamp(s.user, s.timestamp);
  const std::uint64_t ordinal = ++fault_clock_.accepted;
  if (FaultClock::hits(ordinal, config_.faults.drop_every)) {
    // Network loss after the ack: the submission never reaches the queue.
    ++stats_.dropped_by_fault;
    return {Reject::kNone};
  }
  const QueuedSubmission qs{s, metrics_.now_ns()};
  queue_.push_back(qs);
  if (FaultClock::hits(ordinal, config_.faults.duplicate_every)) {
    queue_.push_back(qs);  // duplicate delivery (may exceed the bound by one)
    ++stats_.duplicated_by_fault;
  }
  if (FaultClock::hits(ordinal, config_.faults.reorder_every) &&
      queue_.size() >= 2) {
    std::swap(queue_[queue_.size() - 1], queue_[queue_.size() - 2]);
  }
  queue_depth_gauge_.set(static_cast<std::int64_t>(queue_.size()));
  return {Reject::kNone};
}

void CollationService::append_with_retry(const Submission& s) {
  if (wal_ == nullptr) return;
  const std::uint64_t ordinal = ++fault_clock_.appends;
  const bool hard = ordinal == config_.faults.fail_append_hard_at;
  const bool transient =
      ordinal == config_.faults.fail_append_at ||
      FaultClock::hits(ordinal, config_.faults.fail_append_every);
  for (std::size_t attempt = 0; attempt <= config_.max_append_retries;
       ++attempt) {
    const bool inject = hard || (transient && attempt == 0);
    const std::uint64_t t0 = metrics_.now_ns();
    const bool ok = wal_->append(s, inject);
    wal_append_ns_.observe(metrics_.now_ns() - t0);
    if (ok) {
      wal_appends_counter_.inc();
      {
        util::MutexLock lock(mu_);
        ++stats_.wal_appends;
      }
      return;
    }
    wal_retries_counter_.inc();
    {
      util::MutexLock lock(mu_);
      ++stats_.wal_retries;
    }
    if (attempt < config_.max_append_retries) {
      config_.sleeper(config_.retry_backoff * (1u << attempt));
    }
  }
  throw WalAppendError("WAL append failed after " +
                       std::to_string(1 + config_.max_append_retries) +
                       " attempts");
}

std::size_t CollationService::pump(std::size_t max_records) {
  // Enforce the single-caller contract: pump-owned state (graph_, wal_,
  // applied_since_snapshot_) is mutex-free by design, so a second
  // concurrent caller is memory corruption, not a performance bug. Abort
  // loudly instead.
  WAFP_CHECK(!pump_active_.exchange(true, std::memory_order_acquire))
      << "CollationService::pump entered while another pump is in flight; "
         "exactly one caller (or the background worker) may pump at a time";
  struct PumpOwner {
    std::atomic<bool>& active;
    ~PumpOwner() { active.store(false, std::memory_order_release); }
  } owner{pump_active_};

  std::size_t applied = 0;
  while (applied < max_records) {
    QueuedSubmission qs;
    {
      util::MutexLock lock(mu_);
      if (queue_.empty() || crashed_) break;
      qs = queue_.front();
      queue_.pop_front();
      queue_depth_gauge_.set(static_cast<std::int64_t>(queue_.size()));
    }
    try {
      append_with_retry(qs.s);
    } catch (...) {
      // Not durable => not applied. Requeue at the front so a later pump
      // (or an operator intervention) can retry in order.
      util::MutexLock lock(mu_);
      queue_.push_front(qs);
      queue_depth_gauge_.set(static_cast<std::int64_t>(queue_.size()));
      throw;
    }
    apply(qs.s);
    ingest_apply_ns_.observe(metrics_.now_ns() - qs.enqueued_ns);
    ++applied;
    maybe_snapshot();
  }
  return applied;
}

void CollationService::apply(const Submission& s) {
  graph_.add_observation(s.user, s.efp);
  ++applied_since_snapshot_;
  applied_counter_.inc();
  util::MutexLock lock(mu_);
  ++stats_.applied;
}

void CollationService::maybe_snapshot() {
  if (wal_ == nullptr || config_.snapshot_every == 0) return;
  if (applied_since_snapshot_ < config_.snapshot_every) return;
  checkpoint();
}

void CollationService::checkpoint() {
  if (wal_ == nullptr) return;
  WAFP_SPAN_IN(metrics_, "service/checkpoint");
  const std::uint64_t t0 = metrics_.now_ns();
  SnapshotState state;
  {
    // mu_ also covers validator_: submit() writes user clocks concurrently.
    util::MutexLock lock(mu_);
    state.applied = stats_.applied;
    state.user_clocks.assign(validator_.clocks().begin(),
                             validator_.clocks().end());
  }
  state.graph = graph_.export_state();
  if (!write_snapshot(snapshot_path(), state)) return;  // keep WAL intact
  if (config_.faults.corrupt_snapshot) {
    corrupt_snapshot_file(snapshot_path());
  }
  wal_->reset();
  applied_since_snapshot_ = 0;
  snapshot_ns_.observe(metrics_.now_ns() - t0);
  util::MutexLock lock(mu_);
  ++stats_.snapshots_written;
}

void CollationService::drain_and_checkpoint() {
  stop();
  while (pump() > 0) {
  }
  if (wal_ != nullptr && applied_since_snapshot_ > 0) checkpoint();
}

void CollationService::crash() {
  stop();
  util::MutexLock lock(mu_);
  crashed_ = true;
  queue_.clear();
  queue_depth_gauge_.set(0);
  graph_ = collation::FingerprintGraph();
}

void CollationService::start() {
  if (running_.exchange(true)) return;
  util::MutexLock lock(worker_mu_);
  if (worker_.joinable()) worker_.join();  // reap a self-stopped worker
  worker_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      std::size_t applied = 0;
      try {
        applied = pump(256);
      } catch (const WalAppendError&) {
        // pump() already requeued the submission. An exception escaping a
        // thread function would std::terminate the process, so record the
        // hard failure and park the worker; queued work stays intact for a
        // manual pump() or a restarted worker to retry. Clear running_
        // *before* publishing the stat so an observer that sees the failure
        // count can immediately start() a replacement worker.
        running_.store(false, std::memory_order_relaxed);
        {
          util::MutexLock lock(mu_);
          ++stats_.wal_append_failures;
        }
        break;
      }
      if (applied == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });
}

void CollationService::stop() {
  running_.store(false, std::memory_order_relaxed);
  util::MutexLock lock(worker_mu_);
  if (worker_.joinable()) worker_.join();
}

ServiceStats CollationService::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

std::uint64_t CollationService::max_observed_timestamp() const {
  util::MutexLock lock(mu_);
  std::uint64_t newest = 0;
  for (const auto& [user, ts] : validator_.clocks()) {
    newest = std::max(newest, ts);
  }
  return newest;
}

}  // namespace wafp::service
