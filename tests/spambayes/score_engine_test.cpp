// Equivalence + invalidation suite for ScoreEngine, the one scoring core:
//
//  * the engine's single-message, batch and overlay paths, and the
//    Classifier and Filter forwards to it, are BIT-identical to the
//    independent string-keyed reference in tests/support/
//    reference_scorer.h (scores, evidence values/ordering/used flags,
//    verdicts) — every comparison is EXPECT_EQ on doubles, never
//    approximate;
//  * the generation contract makes stale-cache reuse impossible: any
//    train/untrain/merge/load moves the database to a process-globally
//    unique generation and the warm memo is refilled, so
//    train -> score -> untrain -> score returns the pre-train bits;
//  * the overlay form neither reads nor rebinds the base memo;
//  * mutating the database from inside a batch sink throws (one batch =
//    one snapshot);
//  * one engine per thread reproduces the single-threaded bits at any
//    thread count.
#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "eval/runner.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"
#include "spambayes/sparse_token_db.h"
#include "support/reference_scorer.h"
#include "support/token_ids.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

using test_support::ref_score;
using test_support::RefDatabase;
using test_support::ScoreResult;
using test_support::spellings;
using test_support::TokenEvidence;

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

/// A trained filter, the same training in the string-keyed reference, and
/// deduplicated probe id sets.
struct EngineCorpus {
  Filter filter;
  RefDatabase ref;
  std::vector<TokenIdSet> probes;

  explicit EngineCorpus(int train_each = 100, int probe_count = 40,
                        std::uint64_t seed = 4242) {
    const corpus::TrecLikeGenerator& gen = generator();
    util::Rng rng(seed);
    for (int i = 0; i < train_each; ++i) {
      const email::Message ham = gen.generate_ham(rng);
      const email::Message spam = gen.generate_spam(rng);
      filter.train_ham_ids(filter.message_token_ids(ham));
      filter.train_spam_ids(filter.message_token_ids(spam));
      ref.train(unique_tokens(filter.tokenizer().tokenize(ham)), false);
      ref.train(unique_tokens(filter.tokenizer().tokenize(spam)), true);
    }
    for (int i = 0; i < probe_count; ++i) {
      const email::Message m =
          i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
      probes.push_back(filter.message_token_ids(m));
    }
  }
};

/// The reference scorer's result for `ids` against `ref`, its evidence in
/// id-list order so it lines up entry for entry with the engine's.
ScoreResult reference(const RefDatabase& ref, const TokenIdList& ids,
                      const ClassifierOptions& opts = {}) {
  return ref_score(ref, spellings(ids), opts);
}

std::string_view spelling_of(const TokenEvidence& ev) { return ev.token; }
std::string_view spelling_of(const TokenIdEvidence& ev) {
  return global_interner().spelling(ev.id);
}

/// Bitwise comparison of two results of any of ScoreResult, ScoreIdResult
/// and BatchScore; evidence entries are matched by spelling.
template <typename Expected, typename Actual>
void expect_bitwise_equal(const Expected& expected, const Actual& actual,
                          const char* what) {
  EXPECT_EQ(expected.score, actual.score) << what;
  EXPECT_EQ(expected.spam_evidence, actual.spam_evidence) << what;
  EXPECT_EQ(expected.ham_evidence, actual.ham_evidence) << what;
  EXPECT_EQ(expected.tokens_used, actual.tokens_used) << what;
  EXPECT_EQ(expected.verdict, actual.verdict) << what;
  ASSERT_EQ(expected.evidence.size(), actual.evidence.size()) << what;
  for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
    EXPECT_EQ(spelling_of(expected.evidence[j]),
              spelling_of(actual.evidence[j]))
        << what;
    EXPECT_EQ(expected.evidence[j].score, actual.evidence[j].score) << what;
    EXPECT_EQ(expected.evidence[j].used, actual.evidence[j].used) << what;
  }
}

// --- bitwise equivalence to the string-keyed reference ---------------------

TEST(ScoreEngine, SingleMessagePathMatchesReferenceBitwise) {
  EngineCorpus corpus;
  ScoreEngine engine(corpus.filter.options().classifier);
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    const ScoreResult expected = reference(corpus.ref, corpus.probes[i]);
    // Score twice: the first call fills the memo, the second consumes it
    // warm — both must carry the reference's bits.
    expect_bitwise_equal(
        expected, engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "cold");
    expect_bitwise_equal(
        expected, engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "warm");
  }
}

TEST(ScoreEngine, BatchPathMatchesReferenceBitwise) {
  EngineCorpus corpus;
  ScoreEngine engine(corpus.filter.options().classifier);
  std::size_t seen = 0;
  engine.score_ids_batch(
      corpus.filter.database(), corpus.probes,
      [&](std::size_t i, const BatchScore& scored) {
        ++seen;
        expect_bitwise_equal(reference(corpus.ref, corpus.probes[i]), scored,
                             "batch");
      });
  EXPECT_EQ(seen, corpus.probes.size());
}

TEST(ScoreEngine, ForwardsMatchReferenceBitwise) {
  // Filter::classify_ids and Classifier::score_ids both reach the
  // thread-local engine; each must carry the reference's bits.
  EngineCorpus corpus;
  const Classifier& classifier = corpus.filter.classifier();
  const TokenDatabase& db = corpus.filter.database();
  for (const TokenIdSet& probe : corpus.probes) {
    const ScoreResult expected = reference(corpus.ref, probe);
    expect_bitwise_equal(expected, corpus.filter.classify_ids(probe),
                         "classify_ids");
    expect_bitwise_equal(expected, classifier.score_ids(db, probe),
                         "score_ids");
  }
}

TEST(ScoreEngine, OverlayFormMatchesReferenceAndKeepsBaseMemo) {
  // Base-only and overlay calls interleave on one engine, as they do on a
  // serving connection thread. The overlay form must score the merged
  // counts exactly and leave the base memo bound and intact.
  EngineCorpus corpus(80, 24, 808);
  const TokenDatabase& db = corpus.filter.database();
  SparseTokenDatabase overlay;
  RefDatabase merged = corpus.ref;
  std::vector<TokenIdSet> probes = corpus.probes;
  util::Rng rng(809);
  for (int i = 0; i < 20; ++i) {
    const bool spam = i % 2 == 0;
    const email::Message m =
        spam ? generator().generate_spam(rng) : generator().generate_ham(rng);
    const TokenIdSet ids = corpus.filter.message_token_ids(m);
    const auto copies = static_cast<std::uint32_t>(1 + i % 3);
    if (spam) {
      overlay.train_spam_ids(ids, copies);
    } else {
      overlay.train_ham_ids(ids, copies);
    }
    merged.train(spellings(ids), spam, copies);
    probes.push_back(ids);  // overlay-only tokens enter the probes too
  }

  const ClassifierOptions& opts = corpus.filter.options().classifier;
  ScoreEngine engine(opts);
  engine.score_ids(db, probes[0]);
  const std::uint64_t bound = engine.cached_generation();
  EXPECT_EQ(bound, db.generation());
  for (const TokenIdSet& probe : probes) {
    expect_bitwise_equal(reference(corpus.ref, probe, opts),
                         engine.score_ids(db, probe), "base");
    expect_bitwise_equal(reference(merged, probe, opts),
                         engine.score_ids(db, overlay, probe), "overlay");
    EXPECT_EQ(engine.cached_generation(), bound);
  }
}

TEST(ScoreEngine, OverlayFormSumsCountsWithoutWrapping) {
  // An untrain of a never-trained (here: empty) message is valid and lowers
  // NS without touching any token, so an overlay token's count can exceed
  // its class total and reach UINT32_MAX. Its base count on top must not
  // wrap the per-token sum back to zero.
  const TokenId a = global_interner().intern("score-engine-wrap-a");
  const TokenId h = global_interner().intern("score-engine-wrap-h");
  TokenDatabase base;
  base.train_spam_ids({a});
  base.train_ham_ids({h});
  SparseTokenDatabase overlay;
  overlay.train_spam_ids({a}, 1u << 31);
  overlay.untrain_spam_ids({}, 1u << 31);
  overlay.train_spam_ids({a}, (1u << 31) - 1);
  ASSERT_EQ(overlay.counts(a).spam, UINT32_MAX);

  // Merged: NS = 2^31, NH = 1, NS(a) = 2^32, NH(a) = 0, so p(a) = 1 and
  // f(a) = (s*x + n) / (s + n) with n = 2^32 (Eq. 2).
  const ClassifierOptions opts;
  const double n = 4294967296.0;
  const double exact =
      (opts.unknown_word_strength * opts.unknown_word_prob + n) /
      (opts.unknown_word_strength + n);
  ScoreEngine engine(opts);
  const ScoreIdResult scored = engine.score_ids(base, overlay, {a});
  ASSERT_EQ(scored.evidence.size(), 1u);
  EXPECT_EQ(scored.evidence[0].score, exact);
}

// --- generation invalidation -----------------------------------------------

TEST(ScoreEngine, TrainUntrainRoundTripRestoresPreTrainBits) {
  EngineCorpus corpus(60, 10, 77);
  ScoreEngine engine(corpus.filter.options().classifier);
  util::Rng rng(5);
  const TokenIdSet extra =
      corpus.filter.message_token_ids(generator().generate_spam(rng));

  std::vector<ScoreIdResult> before;
  for (const TokenIdSet& probe : corpus.probes) {
    before.push_back(engine.score_ids(corpus.filter.database(), probe));
  }

  corpus.filter.train_spam_ids(extra, 3);
  corpus.ref.train(spellings(extra), /*spam=*/true, 3);
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    // The warm memo must not leak pre-train values into the poisoned
    // database's scores...
    expect_bitwise_equal(
        reference(corpus.ref, corpus.probes[i]),
        engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "after train");
  }

  corpus.filter.untrain_spam_ids(extra, 3);
  for (std::size_t i = 0; i < corpus.probes.size(); ++i) {
    // ...and untraining back to the original counts must reproduce the
    // original bits even though the generation is new.
    expect_bitwise_equal(
        before[i],
        engine.score_ids(corpus.filter.database(), corpus.probes[i]),
        "after untrain");
  }
}

TEST(ScoreEngine, LoadInvalidates) {
  EngineCorpus small(30, 4, 11);
  EngineCorpus big(90, 4, 12);
  ScoreEngine engine(small.filter.options().classifier);
  // Warm the memo on the small database...
  for (const TokenIdSet& probe : small.probes) {
    engine.score_ids(small.filter.database(), probe);
  }
  // ...then score a freshly load()ed database with different contents:
  // the loaded database carries a new generation, so no warm value may
  // survive.
  std::stringstream stream;
  big.filter.database().save(stream);
  const TokenDatabase loaded = TokenDatabase::load(stream);
  EXPECT_NE(loaded.generation(), small.filter.database().generation());
  EXPECT_NE(loaded.generation(), big.filter.database().generation());
  for (const TokenIdSet& probe : big.probes) {
    expect_bitwise_equal(reference(big.ref, probe),
                         engine.score_ids(loaded, probe), "loaded db");
  }
}

TEST(ScoreEngine, GenerationsAreProcessGloballyUnique) {
  util::Rng rng(9);
  Filter filter;
  const TokenIdSet msg =
      filter.message_token_ids(generator().generate_spam(rng));

  TokenDatabase a;
  const std::uint64_t g0 = a.generation();
  a.train_spam_ids(msg);
  const std::uint64_t g1 = a.generation();
  EXPECT_NE(g0, g1);

  // A copy IS the same state and keeps the stamp...
  TokenDatabase b = a;
  EXPECT_EQ(b.generation(), g1);
  // ...until either side mutates, which moves it to a fresh value no
  // database has ever held.
  b.train_ham_ids(msg);
  const std::uint64_t g2 = b.generation();
  EXPECT_NE(g2, g1);
  EXPECT_EQ(a.generation(), g1);
  a.untrain_spam_ids(msg);
  EXPECT_NE(a.generation(), g1);
  EXPECT_NE(a.generation(), g2);

  // merge() and no-op guards.
  TokenDatabase c;
  const std::uint64_t g3 = c.generation();
  c.merge(b);
  EXPECT_NE(c.generation(), g3);
  const std::uint64_t g4 = c.generation();
  c.train_spam_ids(msg, 0);  // copies == 0 mutates nothing
  EXPECT_EQ(c.generation(), g4);
}

TEST(ScoreEngine, FailedUntrainLeavesContentsAndGenerationUntouched) {
  // A throwing untrain must not change the database at all: a partial
  // decrement without a generation bump would let a warm engine serve
  // stale memoized values while believing the contents unchanged.
  const TokenId a = global_interner().intern("score-engine-test-token-a");
  const TokenId b = global_interner().intern("score-engine-test-token-b");
  const TokenId c = global_interner().intern("score-engine-test-token-c");
  TokenDatabase db;
  TokenIdSet trained = {a, b};
  std::sort(trained.begin(), trained.end());
  db.train_spam_ids(trained);
  const std::uint64_t gen = db.generation();
  TokenIdSet bogus = {a, b, c};  // c was never trained
  std::sort(bogus.begin(), bogus.end());
  EXPECT_THROW(db.untrain_spam_ids(bogus), InvalidArgument);
  EXPECT_EQ(db.generation(), gen);
  EXPECT_EQ(db.counts(a).spam, 1u);
  EXPECT_EQ(db.counts(b).spam, 1u);
  EXPECT_EQ(db.spam_count(), 1u);
  EXPECT_EQ(db.vocabulary_size(), 2u);
}

TEST(ScoreEngine, MutationDuringBatchThrows) {
  EngineCorpus corpus(40, 6, 21);
  ScoreEngine engine(corpus.filter.options().classifier);
  EXPECT_THROW(
      engine.score_ids_batch(
          corpus.filter.database(), corpus.probes,
          [&](std::size_t i, const BatchScore&) {
            if (i == 0) corpus.filter.train_spam_ids(corpus.probes[0]);
          }),
      InvalidArgument);
  // Clean up the mutation so the filter is consistent for other asserts.
  corpus.filter.untrain_spam_ids(corpus.probes[0]);
  // The engine itself must recover: the next bind resynchronizes.
  expect_bitwise_equal(
      reference(corpus.ref, corpus.probes[1]),
      engine.score_ids(corpus.filter.database(), corpus.probes[1]),
      "after recovery");
}

// --- options rebinding ------------------------------------------------------

TEST(ScoreEngine, ThreadEngineTracksOptionChanges) {
  EngineCorpus corpus(50, 8, 31);
  ClassifierOptions strict;
  strict.minimum_prob_strength = 0.3;
  strict.unknown_word_strength = 0.8;
  for (const TokenIdSet& probe : corpus.probes) {
    // Alternate options through the shared thread engine: each rebind
    // must invalidate the memoized probabilities/flags.
    expect_bitwise_equal(
        reference(corpus.ref, probe, ClassifierOptions{}),
        ScoreEngine::for_current_thread(ClassifierOptions{})
            .score_ids(corpus.filter.database(), probe),
        "default opts");
    expect_bitwise_equal(
        reference(corpus.ref, probe, strict),
        ScoreEngine::for_current_thread(strict).score_ids(
            corpus.filter.database(), probe),
        "strict opts");
  }
}

// --- thread-count equivalence ----------------------------------------------

TEST(ScoreEngine, SharedConstFilterBitIdenticalAtOneAndFourThreads) {
  EngineCorpus corpus(80, 32, 616);
  std::vector<double> expected;
  for (const TokenIdSet& probe : corpus.probes) {
    expected.push_back(reference(corpus.ref, probe).score);
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    eval::Runner runner(1, threads);
    // Every worker classifies through its own thread_local engine against
    // the one shared const Filter.
    std::vector<double> scores = runner.map(
        corpus.probes.size(), /*salt=*/10, [&](std::size_t i, util::Rng&) {
          return corpus.filter.classify_ids(corpus.probes[i]).score;
        });
    ASSERT_EQ(scores.size(), expected.size());
    for (std::size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], expected[i])
          << "probe " << i << " at " << threads << " thread(s)";
    }
  }
}

}  // namespace
}  // namespace sbx::spambayes
