// sbx/spambayes/filter.h
//
// End-to-end SpamBayes filter: tokenizer + training database + classifier.
// This is the library's primary user-facing class and the system the
// paper's attacks poison.
//
// Typical use:
//   Filter filter;
//   filter.train_ham(msg1);
//   filter.train_spam(msg2);
//   auto result = filter.classify(incoming);
//   if (result.verdict == Verdict::spam) { ... }
//
// Pre-tokenized messages are interned TokenIdSets (see interner.h), the
// only token form the model accepts: tokenize a message once with
// message_token_ids() (train) or classify_token_ids() (classify), then
// train/untrain/classify with the *_ids methods. Every classify method
// scores through the calling thread's ScoreEngine (score_engine.h).
#pragma once

#include <cstdint>

#include "email/message.h"
#include "spambayes/classifier.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/score_engine.h"
#include "spambayes/token_db.h"
#include "spambayes/tokenizer.h"

namespace sbx::spambayes {

/// Trained spam filter. Copyable: experiments snapshot a clean filter and
/// graft attack training onto the copy (with the flat TokenDatabase this is
/// a plain vector copy).
class Filter {
 public:
  explicit Filter(FilterOptions opts = {});

  /// Tokenizes and trains one message as ham/spam.
  void train_ham(const email::Message& msg);
  void train_spam(const email::Message& msg);

  /// Trains `copies` identical spam messages in one O(|tokens|) update.
  /// Counts are additive, so this is exactly equivalent to calling
  /// train_spam(msg) `copies` times (the dictionary attack relies on this
  /// for tractability at paper scale).
  void train_spam_copies(const email::Message& msg, std::uint32_t copies);

  /// Exactly reverses a previous training call (RONI needs this).
  void untrain_ham(const email::Message& msg);
  void untrain_spam(const email::Message& msg);

  /// Pre-interned variants — the hot paths in the experiment harness, which
  /// tokenizes each corpus message once and reuses the id sets.
  void train_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void train_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Scores and labels a message: classify_ids(classify_token_ids(msg)).
  ScoreIdResult classify(const email::Message& msg) const;

  /// Scores a pre-interned message with no per-token hashing. Routed
  /// through the calling thread's ScoreEngine (see score_engine.h):
  /// per-token probabilities and Fisher log-terms are memoized per
  /// database generation, so repeated classification against an unchanged
  /// database skips the libm transcendentals entirely. Safe to call on a
  /// shared const Filter from any number of threads (one engine per
  /// thread).
  ScoreIdResult classify_ids(const TokenIdSet& ids) const;

  /// Zero-allocation batch classify: scores ids_of(i) for i in
  /// [0, count) against this filter's database and calls
  /// sink(i, const BatchScore&) for each. Evidence/candidate buffers are
  /// reused across the whole batch and the per-message BatchScore.evidence
  /// view is only valid inside the sink call. Bit-identical to calling
  /// classify_ids per message. The database must not be mutated from the
  /// sink (the engine throws on a mid-batch generation change).
  template <typename GetIds, typename Sink>
  void classify_batch(std::size_t count, GetIds&& ids_of, Sink&& sink) const {
    ScoreEngine::for_current_thread(opts_.classifier)
        .score_batch(db_, count, std::forward<GetIds>(ids_of),
                     std::forward<Sink>(sink));
  }

  /// The message's id set for training: one tokenizer pass that interns
  /// every novel token.
  TokenIdSet message_token_ids(const email::Message& msg) const;

  /// The id set classification needs, scoring bit-identically to
  /// message_token_ids(msg) against any database or overlay. When a token
  /// the interner has never seen cannot enter delta(E) under this filter's
  /// options (detail::unseen_token_is_discriminator() is false, as it is
  /// for the defaults), the pass only looks tokens up and drops the unseen
  /// ones, so classify traffic never grows the process-global interner.
  /// Otherwise it interns, exactly like message_token_ids().
  TokenIdSet classify_token_ids(const email::Message& msg) const;

  const TokenDatabase& database() const { return db_; }
  TokenDatabase& mutable_database() { return db_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }
  const Classifier& classifier() const { return classifier_; }
  const FilterOptions& options() const { return opts_; }

  /// Replaces the classification cutoffs (dynamic-threshold defense).
  void set_cutoffs(double ham_cutoff, double spam_cutoff);

 private:
  FilterOptions opts_;
  IdMode classify_id_mode_;
  Tokenizer tokenizer_;
  Classifier classifier_;
  TokenDatabase db_;
};

}  // namespace sbx::spambayes
