// sbx/serve/frontend.h
//
// ServeFrontend is the in-process serving API: it owns the shared base
// filter, the shard array, and the user-id routing table, and maps
// protocol requests to responses. The socket server (server.h) and any
// embedded caller (tests, sbx_loadgen --verify) use the exact same
// dispatch path, so "what the daemon answers" is defined here once.
//
// Consistency contract (the ISSUE's correctness bar):
//
//  * a user with an empty overlay classifies bit-identically to the base
//    filter — the classify path pumps the base through the
//    generation-cached ScoreEngine batch API, the same code path batch
//    experiments use;
//  * a user whose overlay was trained on messages M classifies
//    bit-identically to a standalone Filter copy trained on M — ScoreEngine's
//    overlay form (which leaves the thread engine's base memo warm) sums
//    base and overlay counts exactly, in wider than uint32, so it sees the
//    same doubles as a merged database would. A Train whose `copies` would
//    carry the base + overlay class totals past UINT32_MAX is rejected
//    unlogged;
//  * one classify batch reads one overlay snapshot: mutations that land
//    mid-batch affect later requests, never a half-scored batch.
//
// Snapshot, then tokenize: classify never interns. It tokenizes through
// Filter::classify_token_ids(), which only looks tokens up and drops the
// ones the process-global interner has never seen (they would score as
// non-discriminators; the Filter falls back to interning for options
// where they would not). The overlay snapshot is taken *before* that
// lookup. A Train interns its message's tokens before it publishes the
// overlay, and the snapshot's acquire pairs with that publish, so the
// lookup finds every token the snapshot's overlay holds and the result is
// exactly the pre-train or the post-train score. The reverse order could
// pair a lookup that missed a train's novel tokens with the overlay that
// counts them, a score neither model would produce.
//
// Cost: a user's overlay is a sparse table of the tokens that user
// trained (spambayes::SparseTokenDatabase), so per-user memory and the
// copy-on-write cost of each Train/Untrain are O(that user's feedback).
// Classify traffic grows no shared state at all, and neither does Untrain,
// which only looks tokens up; only a Train the shard applies and replay
// intern.
//
// Durability (PR 7): constructed with a Durability, every Train/Untrain is
// WAL-logged before it publishes, and recover() (recovery.h) rebuilds the
// frontend from snapshot + log to a state bit-identical to an
// uninterrupted run. Without one, the frontend is the same in-memory
// structure as before — that is what sbx_loadgen's verification mirror
// embeds.
//
// Replication (PR 9): the frontend carries a Role. A primary with an
// attached Replicator ships every committed WAL record to the standby; a
// standby (set_standby) refuses Classify/Train/Untrain over dispatch with
// ErrorCode::kNotPrimary (+ optional redirect endpoint) and instead
// absorbs ReplicateBatch frames through the shards' replay-equivalent
// apply_replicated path. promote() flips a standby to primary with no
// replay gap: every shipped record was applied (and logged) as it
// arrived, so promotion only has to advance the seqno counter past the
// replicated watermark.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/protocol.h"
#include "serve/recovery.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "spambayes/filter.h"

namespace sbx::serve {

class Replicator;

/// What this node answers for. Standbys refuse writes (and classify —
/// their models trail the primary by the ship lag) until promoted.
enum class Role : std::uint8_t { kPrimary = 0, kStandby = 1 };

struct FrontendConfig {
  std::size_t shard_count = 4;
  std::size_t user_count = 64;
  /// Request-id dedup window per user (0 disables idempotent retries).
  std::size_t dedup_window = 64;
};

/// Connection-level counters owned by the socket server but reported
/// through the frontend's stats endpoint. Atomics, so the stats path reads
/// them without touching server locks.
struct ServerCounters {
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> active{0};
};

class ServeFrontend {
 public:
  /// Takes ownership of the shared base filter (immutable from here on)
  /// and builds the shard/user routing table. With a Durability, the
  /// shards log every mutation to their WAL before publishing. Throws
  /// InvalidArgument on a zero shard or user count.
  ServeFrontend(spambayes::Filter base, FrontendConfig config,
                std::unique_ptr<Durability> durability = nullptr);
  ~ServeFrontend();

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  ClassifyBatchResponse classify_batch(const ClassifyBatchRequest& request);
  TrainResponse train(const TrainRequest& request);
  UntrainResponse untrain(const UntrainRequest& request);
  StatsResponse stats() const;

  // --- Replication / roles ------------------------------------------------

  Role role() const { return role_.load(std::memory_order_acquire); }

  /// Marks this node a standby before serving starts. `redirect_hint` (may
  /// be empty) is the endpoint kNotPrimary rejections point writers at.
  /// Not safe to call once requests are in flight — standbys start as
  /// standbys; the only live transition is promote().
  void set_standby(std::string redirect_hint);

  /// Flips this node to primary and advances the durability seqno counter
  /// past everything absorbed as a standby, so freshly drawn seqnos never
  /// collide with replicated ones. Idempotent; returns the watermark.
  PromoteResponse promote();

  /// Standby side of WAL shipping: applies each shipped record through the
  /// shards' replay-equivalent path (skipping per-shard seqnos already
  /// applied — resends are idempotent), waits for the covering fsync, then
  /// acks the batch's highest seqno. The ack therefore implies standby
  /// durability under the standby's own fsync policy.
  ReplicateAckResponse replicate_batch(const ReplicateBatchRequest& request);

  /// Primary side: owns the shipper and wires it into every shard. Call
  /// after construction (and after recovery), before serving.
  void attach_replicator(std::unique_ptr<Replicator> replicator);

  Replicator* replicator() { return replicator_.get(); }

  /// Maps any request to its response, converting sbx::Error into
  /// ErrorResponse (the connection-level catch-all). ShutdownRequest gets
  /// a ShutdownResponse; acting on it is the server's job.
  Response dispatch(const Request& request);

  /// Scores many batches concurrently: requests are grouped by shard and
  /// the groups run on the shared process-wide pool
  /// (util::parallel_over_shards), one ScoreEngine per worker thread.
  /// Response order matches request order.
  std::vector<Response> classify_many(
      const std::vector<ClassifyBatchRequest>& requests);

  const spambayes::Filter& base() const { return base_; }
  std::size_t user_count() const { return route_.size(); }
  std::size_t shard_count() const { return shards_.size(); }

  /// The routed (shard, local slot) of a user id — exposed so tests can
  /// target users that share / don't share a shard.
  struct RouteEntry {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;
  };
  RouteEntry route(std::uint64_t user_id) const;

  /// A user's published overlay (lock-free; null = empty). Throws
  /// InvalidArgument for an unknown user.
  OverlaySnapshot overlay(std::uint64_t user_id) const;

  // --- Durability / recovery wiring ---------------------------------------

  /// Null when running in-memory only.
  Durability* durability() { return durability_.get(); }

  /// Final WAL flush (graceful drain). With a replicator attached, drains
  /// the ship queue (bounded wait) and stops the shipper first.
  void sync_durability();

  /// Recovery-only: installs one user's snapshot state (recovery.h's
  /// recover() is the caller). Throws InvalidArgument for an unknown uid.
  void replay_install_user(std::uint64_t uid, OverlaySnapshot overlay,
                           std::vector<DedupEntry> dedup);

  /// Recovery-only: re-applies one logged mutation (tokenizing the logged
  /// raw text through the same pipeline the live request took) without
  /// re-logging it.
  void replay_wal_record(const WalRecord& record);

  /// Surfaces recovery telemetry through stats().
  void set_recovery_stats(const RecoveryStats& stats) {
    recovery_stats_ = stats;
  }

  /// Points stats() at the socket server's connection counters (the server
  /// detaches on destruction).
  void attach_server_counters(const ServerCounters* counters) {
    server_counters_.store(counters, std::memory_order_release);
  }

 private:
  const RouteEntry& route_checked(std::uint64_t user_id) const;
  MutationResult apply(std::uint8_t op, std::uint64_t user_id,
                       std::uint64_t request_id, bool as_spam,
                       std::uint32_t copies, const std::string& message);
  ErrorResponse not_primary(const char* what);

  spambayes::Filter base_;
  std::unique_ptr<Durability> durability_;
  std::unique_ptr<Replicator> replicator_;
  std::atomic<Role> role_{Role::kPrimary};
  // Written once by set_standby before serving starts; read-only after.
  std::string redirect_hint_;
  std::vector<std::unique_ptr<ModelShard>> shards_;
  std::vector<RouteEntry> route_;  // indexed by user id
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  RecoveryStats recovery_stats_;
  std::atomic<const ServerCounters*> server_counters_{nullptr};
  std::atomic<std::uint64_t> classify_requests_{0};
  std::atomic<std::uint64_t> train_requests_{0};
  std::atomic<std::uint64_t> untrain_requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> standby_applied_records_{0};
};

}  // namespace sbx::serve
