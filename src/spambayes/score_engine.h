// sbx/spambayes/score_engine.h
//
// The SpamBayes scoring core (paper §2.3, Eq. 1-4): the only code that
// selects delta(E) and runs the Fisher combination. Classifier forwards
// here. Two forms share one selection and combine routine:
//  * score_ids(db, ids) and score_batch memoize per (token, database
//    generation) — each token's f, log(f), log1p(-f), distance from 0.5
//    and discriminator flag — since a database only changes at training
//    events, so the libm calls run once per token, not per message;
//  * score_ids(base, overlay, ids) scores a base plus a per-user sparse
//    overlay. Merged class totals move every token's f, so it neither
//    reads nor rebinds the memo and takes logs for selected tokens only.
// Per-token arithmetic is scoring_math.h's, so a memoized value carries
// the bits a fresh one would; tests/spambayes/score_engine_test.cpp holds
// both forms to EXPECT_EQ on doubles against an independent reference.
//
// Invalidation contract: TokenDatabase::generation() values are process-
// globally unique per mutation, so `generation() == cached` proves the
// cached per-token values are still exact; any train/untrain/merge/load
// moves the database to a never-before-seen generation and the engine
// lazily refills on the next score call. Stale reuse after a mutation is
// therefore impossible by construction, and score_batch() additionally
// *throws* if the database is mutated mid-batch (one batch = one
// snapshot).
//
// Thread ownership: a ScoreEngine is mutable scratch — one engine per
// thread, never shared. for_current_thread() hands out a thread_local
// engine (rebinding it to the requested options), which is what lets a
// *const* Filter be classified from many threads at once: each thread
// memoizes into its own engine and all of them produce identical bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "spambayes/classifier.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/scoring_math.h"
#include "spambayes/sparse_token_db.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes {

/// One scored message as seen by a batch sink: the aggregate fields of
/// ScoreIdResult plus an evidence view. `evidence` aliases the engine's
/// reused scratch buffer — valid only for the duration of the sink call
/// (copy it if you need it afterwards). This is what makes the batch path
/// allocation-free per message.
struct BatchScore {
  double score = 0.5;
  double spam_evidence = 0.0;
  double ham_evidence = 0.0;
  std::size_t tokens_used = 0;
  Verdict verdict = Verdict::unsure;
  std::span<const TokenIdEvidence> evidence;  // in input-id order
};

/// The scorer; owns the per-token memo and per-message scratch buffers.
class ScoreEngine {
 public:
  explicit ScoreEngine(ClassifierOptions opts = {});

  /// Scores one deduplicated id set. `ids` may be in any order (the score
  /// is order-independent; evidence entries follow the input order). The
  /// deterministic tie-break compares interned spellings, never raw id
  /// values, so results do not depend on interning order.
  ScoreIdResult score_ids(const TokenDatabase& db, const TokenIdList& ids);

  /// Scores `ids` against base + overlay without materializing the merge:
  /// counts and NS/NH are exact sums (in double, so an overlay count left
  /// above its class total by an untrain cannot wrap), and the bits equal
  /// score_ids() on a database trained on both message sets. Leaves the
  /// memo and cached_generation() alone.
  ScoreIdResult score_ids(const TokenDatabase& base,
                          const SparseTokenDatabase& overlay,
                          const TokenIdList& ids);

  /// Zero-allocation batch path: scores ids_of(i) for i in [0, count) and
  /// calls sink(i, const BatchScore&) for each. ids_of must return a
  /// reference to a TokenIdList (deduplicated ids, any order). The
  /// database is one snapshot for the whole batch: mutating it from the
  /// sink throws sbx::InvalidArgument on the next message (generation
  /// mismatch).
  template <typename GetIds, typename Sink>
  void score_batch(const TokenDatabase& db, std::size_t count,
                   GetIds&& ids_of, Sink&& sink) {
    bind(db);
    const std::uint64_t bound = generation_;
    BatchScore out;
    for (std::size_t i = 0; i < count; ++i) {
      check_generation(db, bound);
      score_into(db, ids_of(i), out);
      sink(i, static_cast<const BatchScore&>(out));
    }
  }

  /// Convenience overload over a contiguous array of id lists.
  template <typename Sink>
  void score_ids_batch(const TokenDatabase& db,
                       std::span<const TokenIdList> messages, Sink&& sink) {
    score_batch(
        db, messages.size(),
        [&](std::size_t i) -> const TokenIdList& { return messages[i]; },
        std::forward<Sink>(sink));
  }

  /// Swaps the classifier options. Invalidates the memo only when a
  /// memo-relevant parameter (s, x, minimum_prob_strength) actually
  /// changed; cutoffs and max_discriminators apply at combine time and
  /// cost nothing to swap.
  void rebind_options(const ClassifierOptions& opts);

  const ClassifierOptions& options() const { return opts_; }

  /// Generation of the last database the memo was bound to (0 = none
  /// yet; the overlay form never binds). Exposed for tests of the
  /// invalidation contract.
  std::uint64_t cached_generation() const { return generation_; }

  /// The calling thread's engine, rebound to `opts`. Filter, Classifier
  /// and the serving layer route through this, which keeps a shared const
  /// Filter safely classifiable from any number of threads.
  static ScoreEngine& for_current_thread(const ClassifierOptions& opts);

 private:
  /// Memoized per-token values, exact for the bound (generation, options)
  /// pair iff epoch == engine epoch. terms and spell_prefix are only
  /// meaningful when strong (weak tokens are never selected into
  /// delta(E)); spell_prefix is the spelling's first 8 bytes as a
  /// big-endian integer, so the tie-break comparator resolves almost every
  /// spelling comparison with one integer compare (equal prefixes fall
  /// back to the full string, preserving the exact (distance desc,
  /// spelling asc) total order).
  struct TokenMemo {
    double f = 0.5;
    detail::FisherTerms terms;
    double distance = 0.0;
    std::uint64_t spell_prefix = 0;
    std::uint64_t epoch = 0;  // 0 never matches (engine epochs start at 1)
    bool strong = false;
  };

  /// Sort key packing (distance desc, spelling-prefix asc) into one
  /// 128-bit integer: the high lane is the bitwise complement of the
  /// distance's IEEE-754 bits (distance >= 0, so raw bits order doubles
  /// numerically and the complement flips the direction), the low lane
  /// the big-endian 8-byte spelling prefix. Ascending key order is then
  /// exactly the (distance desc, spelling asc) total order, except for
  /// equal keys, which the comparator resolves with a full spelling
  /// comparison.
  // GCC/Clang extension; __extension__ silences -Wpedantic (the build has
  // no 128-bit-free fallback need on the supported toolchains).
  __extension__ typedef unsigned __int128 SortKey;

  /// The overlay form's key: the high lane alone (a zero prefix), so
  /// distance ties go to the full spelling compare and no other reads one.
  using DistanceKey = std::uint64_t;

  template <typename Key>
  struct Candidate {
    Key key;
    std::uint32_t index;  // into the message's evidence
  };

  /// Re-syncs to db's generation, invalidating the memo when it moved.
  void bind(const TokenDatabase& db);

  /// Throws when db no longer matches the generation a batch bound.
  void check_generation(const TokenDatabase& db, std::uint64_t bound) const;

  /// The memo entry for `id`, filled on first use this epoch.
  const TokenMemo& memo_for(const TokenDatabase& db, TokenId id);

  static DistanceKey distance_key(double distance);
  static SortKey sort_key(double distance, std::uint64_t spell_prefix);

  /// Scores one message into `out` using the memo + scratch buffers.
  void score_into(const TokenDatabase& db, const TokenIdList& ids,
                  BatchScore& out);

  /// Selects delta(E) from `candidates`, marks it used in `evidence` and
  /// fills `out` by Fisher's method, taking log_terms(ev) per selected ev.
  template <typename Key, typename LogTerms>
  void select_and_combine(std::vector<Candidate<Key>>& candidates,
                          std::span<TokenIdEvidence> evidence, BatchScore& out,
                          const LogTerms& log_terms);

  ClassifierOptions opts_;
  std::vector<TokenMemo> memo_;  // indexed by TokenId
  std::uint64_t epoch_ = 1;      // bumped on every invalidation
  std::uint64_t generation_ = 0;  // db generation the memo is exact for
  double ns_ = 0.0;               // db.spam_count() as double, cached
  double nh_ = 0.0;
  // Per-message scratch, reused across the whole batch:
  std::vector<TokenIdEvidence> evidence_;
  std::vector<Candidate<SortKey>> candidates_;
  std::vector<Candidate<DistanceKey>> overlay_candidates_;
};

}  // namespace sbx::spambayes
