// sbx/serve/shard.h
//
// A ModelShard owns a fixed set of UserModel slots and enforces the
// serving layer's concurrency contract:
//
//  * classify reads are lock-free — overlay(local) acquire-loads the last
//    published snapshot and never blocks, no matter how many trains are
//    in flight;
//  * train/untrain mutations are applied single-threaded per shard — one
//    mutation mutex serializes them, so UserModel's copy-mutate-publish
//    sequence never races with itself and per-user feedback is applied in
//    a well-defined order.
//
// The shard is the unit of mutation parallelism: with S shards, up to S
// feedback streams commit concurrently while any number of classify
// readers proceed untouched.
//
// Durability (PR 7): with a Durability attached, apply_mutation runs the
// crash-safe sequence under the mutation lock — dedup check, prepare the
// new overlay (may throw; nothing logged), append to the shard's WAL,
// publish, record the dedup entry, maybe checkpoint. The WAL append sits
// strictly between prepare and publish: a state no reader ever saw is
// never logged, and a state any reader saw is always recoverable.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/user_model.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

class Durability;
class Replicator;
struct WalRecord;

/// Aggregate shard counters (relaxed reads; exact once mutations quiesce).
struct ShardStats {
  std::uint64_t users = 0;
  std::uint64_t overlay_users = 0;  // users with a non-empty overlay
  std::uint64_t classified_messages = 0;
  std::uint64_t mutations = 0;
  std::uint64_t deduped = 0;  // retries absorbed by the request-id window
};

/// One remembered mutation outcome, keyed by client request id. Replaying
/// the stored counts (instead of re-applying) is what makes Train/Untrain
/// retries idempotent.
struct DedupEntry {
  std::uint64_t request_id = 0;
  std::uint8_t op = 0;  // kWalOpTrain / kWalOpUntrain
  std::uint32_t spam = 0;  // overlay counts right after the mutation
  std::uint32_t ham = 0;
};

/// One mutation as the shard applies (and logs) it. `message` borrows the
/// request's raw text — valid for the duration of the call only.
struct MutationRequest {
  std::uint8_t op = 0;  // kWalOpTrain / kWalOpUntrain
  std::uint64_t user_id = 0;
  std::uint64_t request_id = 0;  // 0 = no idempotency requested
  bool as_spam = true;
  std::uint32_t copies = 1;
  const std::string* message = nullptr;
  std::uint64_t seqno = 0;  // set only on replay (live path draws its own)
  /// An Untrain whose lookup-only tokenization dropped a never-interned
  /// spelling: rejected, but only after a dedup miss, so a retry of an
  /// applied Untrain still gets its stored result.
  bool unknown_token = false;
};

struct MutationResult {
  std::uint64_t generation = 0;
  std::uint32_t spam = 0;
  std::uint32_t ham = 0;
  bool deduped = false;
  /// Group-commit ticket the ack must wait on (0 = nothing to wait for).
  std::uint64_t commit_ticket = 0;
  /// Replication ship ticket the ack must wait on under --repl-ack=quorum
  /// (0 = nothing enqueued).
  std::uint64_t repl_ticket = 0;
};

/// Outcome of applying one shipped WAL record on a standby.
struct ReplicatedApplyResult {
  bool applied = false;  // false = seqno already applied (resend skipped)
  std::uint64_t commit_ticket = 0;
};

class ModelShard {
 public:
  /// `base` holds the shared base's class totals; every train is checked
  /// against them so base + overlay class totals stay inside uint32 (see
  /// UserModel::prepare).
  explicit ModelShard(std::size_t user_count, BaseTotals base = {});

  ModelShard(const ModelShard&) = delete;
  ModelShard& operator=(const ModelShard&) = delete;

  std::size_t user_count() const { return user_count_; }

  /// Sizes the per-user request-id dedup windows (0 disables dedup). A
  /// WAL-less mirror configures dedup too, so it absorbs retried requests
  /// exactly like the durable server it verifies against. Taken under the
  /// mutation lock, so a late reconfigure cannot tear a concurrent
  /// mutation's dedup window out from under it.
  void configure_dedup(std::size_t dedup_window)
      SBX_EXCLUDES(mutation_mutex_);

  /// Wires this shard to its WAL (durability->wal(shard_index)). Taken
  /// under the mutation lock (same reasoning as configure_dedup).
  void attach_durability(Durability* durability, std::size_t shard_index)
      SBX_EXCLUDES(mutation_mutex_);

  /// Wires this shard to the primary-side WAL shipper. Call after
  /// attach_durability — replication ships the same records the WAL
  /// stores, so a replicator without a WAL is a configuration error.
  void attach_replicator(Replicator* replicator)
      SBX_EXCLUDES(mutation_mutex_);

  /// Records the global user id behind a local slot (snapshots persist
  /// global ids; routing is rebuilt from the manifest on recovery).
  void set_uid_of_local(std::size_t local, std::uint64_t uid)
      SBX_EXCLUDES(mutation_mutex_);

  /// Lock-free read of user `local`'s published overlay (null = empty).
  /// Throws InvalidArgument for an out-of-range slot.
  OverlaySnapshot overlay(std::size_t local) const;

  /// Applies one mutation under the shard mutation lock: dedup → prepare
  /// → WAL append → publish → remember → maybe checkpoint. Throws
  /// InvalidArgument for a bad mutation (untrain of an untrained message,
  /// or a train whose class total would pass UINT32_MAX; nothing is logged
  /// or published) and IoError when the WAL cannot be written (ditto).
  /// A train's `novel` spellings, those its lookup-only tokenization did
  /// not find, are interned only once the train passes dedup and every
  /// check, so a retried or rejected train grows no global state (an
  /// untrain ignores them).
  MutationResult apply_mutation(std::size_t local, const MutationRequest& req,
                                const spambayes::TokenIdSet& ids,
                                const std::vector<std::string>& novel = {})
      SBX_EXCLUDES(mutation_mutex_);

  /// Recovery path: applies a logged mutation without re-logging it (and
  /// without checkpointing), and remembers its request id for post-restart
  /// retry dedup. Throws if the logged mutation no longer applies — a
  /// record was only ever logged after a successful prepare, so failure
  /// here means corrupted state and must be loud.
  MutationResult replay_mutation(std::size_t local, const MutationRequest& req,
                                 const spambayes::TokenIdSet& ids)
      SBX_EXCLUDES(mutation_mutex_);

  /// Recovery path: installs a snapshot's overlay and dedup window
  /// verbatim (no WAL, no counters).
  void replay_install(std::size_t local, OverlaySnapshot overlay,
                      std::vector<DedupEntry> dedup)
      SBX_EXCLUDES(mutation_mutex_);

  /// Standby path: applies one WAL record shipped from the primary —
  /// appends it verbatim to this node's own log (keeping the primary's
  /// seqno), publishes the overlay, remembers the dedup entry, and may
  /// checkpoint. Records at or below the shard's last applied seqno are
  /// skipped (a reconnecting primary resends its unacked batch).
  ReplicatedApplyResult apply_replicated(std::size_t local,
                                         const WalRecord& record,
                                         const spambayes::TokenIdSet& ids)
      SBX_EXCLUDES(mutation_mutex_);

  /// Highest seqno applied or logged here (promotion reads this to seed
  /// the seqno counter past everything the standby absorbed).
  std::uint64_t last_seqno() const SBX_EXCLUDES(mutation_mutex_);

  /// Attributes `messages` classified messages to user `local`.
  void record_classified(std::size_t local, std::uint64_t messages);

  ShardStats stats() const;

 private:
  UserModel& user(std::size_t local);
  const UserModel& user(std::size_t local) const;

  /// Dedup window lookup (caller holds the mutation lock).
  const DedupEntry* find_dedup(std::size_t local, std::uint64_t request_id)
      const SBX_REQUIRES(mutation_mutex_);
  void remember_dedup(std::size_t local, DedupEntry entry)
      SBX_REQUIRES(mutation_mutex_);

  /// Checkpoint when enough records accumulated (caller holds the lock).
  void maybe_snapshot() SBX_REQUIRES(mutation_mutex_);

  std::size_t user_count_;
  const BaseTotals base_;
  // UserModel slots are internally safe for lock-free reads; their
  // mutation methods take mutation_mutex_ as a REQUIRES() capability
  // parameter, so the single-writer half of the contract is checked at
  // the UserModel boundary rather than by guarding the array.
  std::unique_ptr<UserModel[]> users_;
  mutable util::Mutex mutation_mutex_{util::LockRank::kShard,
                                      "ModelShard::mutation_mutex_"};

  // Durability wiring (null = in-memory only, the pre-PR-7 behavior).
  // Everything below changes only under the mutation lock — including
  // the setup calls (configure_dedup / attach_durability), which used to
  // rely on a prose "call before any mutation" contract.
  Durability* durability_ SBX_GUARDED_BY(mutation_mutex_) = nullptr;
  Replicator* replicator_ SBX_GUARDED_BY(mutation_mutex_) = nullptr;
  std::size_t shard_index_ SBX_GUARDED_BY(mutation_mutex_) = 0;
  std::size_t dedup_window_ SBX_GUARDED_BY(mutation_mutex_) = 0;
  // Highest seqno applied or logged here.
  std::uint64_t last_seqno_ SBX_GUARDED_BY(mutation_mutex_) = 0;
  std::vector<std::uint64_t> uid_of_local_ SBX_GUARDED_BY(mutation_mutex_);
  // Per local slot, FIFO.
  std::vector<std::deque<DedupEntry>> dedup_ SBX_GUARDED_BY(mutation_mutex_);
  // Per local slot: mutated since the last checkpoint (feeds incremental
  // snapshots; snapshot installs are clean by definition).
  std::vector<std::uint8_t> dirty_ SBX_GUARDED_BY(mutation_mutex_);
  std::atomic<std::uint64_t> deduped_{0};
};

}  // namespace sbx::serve
