// sbx/serve/user_model.h
//
// Per-user training state for the multi-tenant serving layer: a
// copy-on-write delta overlay on a shared immutable base TokenDatabase.
//
// Every user starts with a null overlay — classification then runs
// directly against the base through the generation-cached ScoreEngine, so
// an idle fleet of a million users costs one database, one memo, zero
// per-user bytes beyond the slot itself. The first mutation
// materializes a private SparseTokenDatabase holding only that user's
// feedback; classification merges it with the base on the fly
// (ScoreEngine's overlay form, score_ids(base, overlay, ids)), which is
// bit-identical to a standalone filter trained on base + overlay messages.
//
// Cost: an overlay is a flat hash table of the tokens this user trained,
// so its memory and the copy each mutation makes are O(this user's
// feedback) — independent of the process-global interner, which grows
// with every user's classify traffic (random-word spam grows it fastest).
//
// Publication protocol (the lock-free read contract): mutations never
// modify a published overlay. They copy it, mutate the copy, and publish
// the copy with a release store into an atomic shared_ptr; readers
// acquire-load a snapshot and score against it for as long as they like —
// the snapshot is immutable and refcount-kept. The overlay's generation
// stamp, drawn from TokenDatabase's process-global monotonic counter,
// then proves snapshot consistency: a copy keeps the stamp, the first
// mutation of the copy draws a strictly larger one, so successive
// published overlays carry strictly increasing generations and
// `generation() == cached` still proves bit-identical contents to any
// reader's cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spambayes/interner.h"
#include "spambayes/sparse_token_db.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

/// An immutable published overlay state. Null = empty overlay (the user
/// has no feedback of their own; classify against the base directly).
using OverlaySnapshot = std::shared_ptr<const spambayes::SparseTokenDatabase>;

/// The shared base's class totals (NS, NH). Classify sums base and overlay
/// counts in uint32, so a train is checked against them before it applies.
struct BaseTotals {
  std::uint32_t spam = 0;
  std::uint32_t ham = 0;
};

/// One user's slot: the published overlay plus relaxed usage counters.
/// Reads (snapshot, counters) are safe from any thread at any time;
/// mutations must be serialized externally — the owning ModelShard applies
/// them single-threaded under its mutation lock.
class UserModel {
 public:
  UserModel() = default;
  UserModel(const UserModel&) = delete;
  UserModel& operator=(const UserModel&) = delete;

  /// The last published overlay (acquire). Scoring against the returned
  /// snapshot is race-free regardless of concurrent mutations: a mutation
  /// publishes a new database, it never touches this one.
  OverlaySnapshot snapshot() const {
    return overlay_.load(std::memory_order_acquire);
  }

  // Mutations take the owning shard's mutation mutex as an explicit
  // capability parameter: "caller holds the shard mutation lock" is not a
  // comment here, it is SBX_REQUIRES(mu) — a clang build refuses call
  // sites that do not provably hold the lock they pass.

  /// The prepare half of a mutation: builds (but does not publish) the
  /// next overlay state in O(this user's entries), whatever the size of
  /// the global vocabulary. Splitting prepare from publish is what lets
  /// the shard write-ahead-log the mutation in between — a prepare failure
  /// (bad untrain, or a train whose class total would pass UINT32_MAX
  /// once summed with `base`) leaves both the log and the published
  /// overlay untouched. A train's `novel` spellings (those a lookup-only
  /// tokenization did not find) are interned and trained with `ids`, but
  /// only after every check has passed, so a rejected train interns
  /// nothing. Caller holds `mu`, the shard mutation lock.
  OverlaySnapshot prepare(const spambayes::TokenIdSet& ids,
                          const std::vector<std::string>& novel,
                          bool as_spam, std::uint32_t copies, bool is_train,
                          const BaseTotals& base, util::Mutex& mu)
      SBX_REQUIRES(mu);

  /// The publish half: release-stores a prepared overlay and counts the
  /// mutation. Caller holds `mu`, the shard mutation lock.
  void publish(OverlaySnapshot next, util::Mutex& mu) SBX_REQUIRES(mu);

  /// Recovery-only: installs an overlay verbatim (no mutation counting —
  /// restored state is not new feedback).
  void install(OverlaySnapshot snapshot) {
    overlay_.store(std::move(snapshot), std::memory_order_release);
  }

  /// Relaxed counters, exported through the stats endpoint.
  void record_classified(std::uint64_t messages) {
    classified_.fetch_add(messages, std::memory_order_relaxed);
  }
  std::uint64_t classified() const {
    return classified_.load(std::memory_order_relaxed);
  }
  std::uint64_t mutations() const {
    return mutations_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<OverlaySnapshot> overlay_{nullptr};
  std::atomic<std::uint64_t> classified_{0};
  std::atomic<std::uint64_t> mutations_{0};
};

}  // namespace sbx::serve
