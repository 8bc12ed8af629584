// Wire-level types and typed errors for the online collation service.
//
// The service ingests *raw* submissions — untrusted text straight off the
// measurement endpoint, as the paper's Firebase backend received them — and
// only hands validated, parsed `Submission`s to the collation graph. Every
// rejection is a typed reason, never UB or a silent drop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fingerprint/vector.h"
#include "util/hash.h"

namespace wafp::service {

/// A submission as received from a client: fingerprint hash still in hex,
/// nothing trusted yet.
struct RawSubmission {
  std::uint32_t user = 0;
  std::uint32_t vector = 0;     // numeric fingerprint::VectorId
  std::uint64_t timestamp = 0;  // client-claimed, validated per user
  std::string efp_hex;          // 64 lowercase hex chars (SHA-256)
};

/// A validated submission: the digest is parsed, the vector id is known.
struct Submission {
  std::uint32_t user = 0;
  fingerprint::VectorId vector = fingerprint::VectorId::kDc;
  std::uint64_t timestamp = 0;
  util::Digest efp;
};

/// Why a submission was not accepted. kNone means it was.
enum class Reject {
  kNone,
  kMalformedHash,        // not 64 lowercase hex chars
  kUnknownVector,        // numeric id outside the registry
  kTimestampRegression,  // older than the user's latest accepted timestamp
  kQueueFull,            // bounded ingest queue at capacity (backpressure)
  kShutdown,             // service is stopping; resubmit after restart
};

/// Human-readable reject reason. The single place submit outcomes become
/// strings (CLI, tests, benches); implemented as an exhaustive switch with
/// no default, so adding a Reject enumerator without a string is a
/// compile-time -Wswitch error, never a silent "unknown".
[[nodiscard]] std::string_view to_string(Reject r);

/// Result of CollationService::submit(). Accepted submissions are queued,
/// not yet applied; rejected ones carry the reason.
struct SubmitResult {
  Reject reason = Reject::kNone;
  [[nodiscard]] bool accepted() const { return reason == Reject::kNone; }
};

/// Same mapping for a full result ("accepted" iff result.accepted()).
[[nodiscard]] std::string_view to_string(const SubmitResult& result);

/// Observable counters, mostly for tests and the CLI.
struct ServiceStats {
  std::uint64_t submitted = 0;       // submit() calls
  std::uint64_t accepted = 0;        // passed validation, enqueued
  std::uint64_t rejected_hash = 0;
  std::uint64_t rejected_vector = 0;
  std::uint64_t rejected_timestamp = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t dropped_by_fault = 0;     // fault-injected network drops
  std::uint64_t duplicated_by_fault = 0;  // fault-injected duplicates
  std::uint64_t applied = 0;              // reached the collation graph
  std::uint64_t wal_appends = 0;          // successful WAL record writes
  std::uint64_t wal_retries = 0;          // transient append failures retried
  std::uint64_t wal_append_failures = 0;  // retry budget exhausted (worker)
  std::uint64_t wal_tail_lines_dropped = 0;  // torn lines repaired at recovery
  std::uint64_t snapshots_written = 0;
  std::uint64_t recovered_from_snapshot = 0;  // submissions restored
  std::uint64_t recovered_from_wal = 0;       // submissions replayed
};

}  // namespace wafp::service
