// Equivalence suite for the interned hot paths: proves that the id-based
// representation (TokenIdSet + flat TokenDatabase + ScoreEngine) is
// bit-identical to the string-keyed implementation it replaced.
//
// The reference (tests/support/reference_scorer.h) is a verbatim port of
// the pre-interning classifier/database (unordered_map<string,
// TokenCounts>, string-sorted tie-break). Every comparison against it is
// EXPECT_EQ on doubles — bitwise, not approximate.
#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "email/mime.h"
#include "eval/runner.h"
#include "spambayes/filter.h"
#include "support/reference_scorer.h"
#include "support/token_ids.h"
#include "support/tokenizer_inputs.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

using test_support::intern_tokens;
using test_support::ref_score;
using test_support::RefDatabase;
using test_support::ScoreResult;
using test_support::spellings;

// --- shared fixture: a trained corpus in both representations --------------

/// The string reference's token set for `m`: the string tokenizer stream,
/// deduplicated.
TokenSet string_tokens(const Filter& filter, const email::Message& m) {
  return unique_tokens(filter.tokenizer().tokenize(m));
}

struct Corpus {
  RefDatabase ref;
  Filter filter;
  std::vector<TokenIdSet> probes_ids;

  explicit Corpus(int train_each = 120, int probes = 60,
                  std::uint64_t seed = 991) {
    const corpus::TrecLikeGenerator& gen = generator();
    util::Rng rng(seed);
    for (int i = 0; i < train_each; ++i) {
      const email::Message ham = gen.generate_ham(rng);
      const email::Message spam = gen.generate_spam(rng);
      ref.train(string_tokens(filter, ham), /*spam=*/false);
      ref.train(string_tokens(filter, spam), /*spam=*/true);
      filter.train_ham_ids(filter.message_token_ids(ham));
      filter.train_spam_ids(filter.message_token_ids(spam));
    }
    for (int i = 0; i < probes; ++i) {
      const email::Message m =
          i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
      probes_ids.push_back(filter.message_token_ids(m));
    }
  }

  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

// --- tokenizer stream equivalence ------------------------------------------

TEST(InternedEquivalence, TokenStreamsAreByteIdentical) {
  const corpus::TrecLikeGenerator& gen = Corpus::generator();
  const Tokenizer tok;
  const TokenInterner& interner = global_interner();
  util::Rng rng(5150);
  for (int i = 0; i < 30; ++i) {
    const email::Message msg =
        i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
    const TokenList strings = tok.tokenize(msg);
    const TokenIdList ids = tok.tokenize_ids(msg);
    ASSERT_EQ(strings.size(), ids.size()) << "message " << i;
    for (std::size_t j = 0; j < strings.size(); ++j) {
      EXPECT_EQ(interner.spelling(ids[j]), strings[j])
          << "message " << i << " token " << j;
    }
    // And dedup commutes with interning.
    EXPECT_EQ(intern_tokens(unique_tokens(strings)),
              unique_token_ids(tok.tokenize_ids(msg)));
  }
}

// --- one-pass id set ---------------------------------------------------------

using test_support::one_pass_inputs;

// tokenize_id_set() against the string reference, for every flavor: under
// kIntern its spellings are exactly unique_tokens(tokenize(m)) and novel
// tokens get ids in first-emission order; under kLookupOnly it is that set
// restricted to tokens find() already knew, and it interns nothing.
TEST(InternedEquivalence, OnePassIdSetMatchesStringReference) {
  TokenInterner& interner = global_interner();
  const std::vector<email::Message> messages = one_pass_inputs();
  const TokenizerOptions flavors[] = {TokenizerFlavors::spambayes(),
                                      TokenizerFlavors::bogofilter(),
                                      TokenizerFlavors::spamassassin()};
  std::size_t novel_total = 0;
  for (std::size_t f = 0; f < std::size(flavors); ++f) {
    const Tokenizer tok(flavors[f]);
    for (std::size_t i = 0; i < messages.size(); ++i) {
      SCOPED_TRACE("flavor " + std::to_string(f) + " message " +
                   std::to_string(i));
      const email::Message& m = messages[i];
      const TokenList stream = tok.tokenize(m);
      const TokenSet expected = unique_tokens(stream);

      // What the interner knows before this message, and the spellings it
      // does not know in first-emission order.
      TokenIdSet known;
      std::vector<std::string> novel;
      for (const std::string& t : stream) {
        if (const auto id = interner.find(t)) {
          known.push_back(*id);
        } else if (std::find(novel.begin(), novel.end(), t) == novel.end()) {
          novel.push_back(t);
        }
      }
      known = unique_token_ids(std::move(known));

      const std::size_t size_before = interner.size();
      EXPECT_EQ(tok.tokenize_id_set(m, IdMode::kLookupOnly), known);
      EXPECT_EQ(interner.size(), size_before);

      const TokenIdSet ids = tok.tokenize_id_set(m, IdMode::kIntern);
      ASSERT_EQ(interner.size(), size_before + novel.size());
      for (std::size_t k = 0; k < novel.size(); ++k) {
        EXPECT_EQ(interner.spelling(static_cast<TokenId>(size_before + k)),
                  novel[k]);
      }
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      TokenSet spellings;
      TokenIdSet filtered;
      for (const TokenId id : ids) {
        spellings.emplace_back(interner.spelling(id));
        if (id < size_before) filtered.push_back(id);
      }
      EXPECT_EQ(filtered, known);
      std::sort(spellings.begin(), spellings.end());
      EXPECT_EQ(spellings, expected);
      EXPECT_EQ(ids, unique_token_ids(tok.tokenize_ids(m)));

      const std::string body = email::extract_text(m);
      EXPECT_EQ(tok.tokenize_text_id_set(body),
                intern_tokens(unique_tokens(tok.tokenize_text(body))));
      novel_total += novel.size();
    }
  }
  // The inputs really exercised the novel-token path.
  EXPECT_GT(novel_total, 1000u);
}

// --- classification equivalence --------------------------------------------

TEST(InternedEquivalence, ScoresBitIdenticalToStringKeyedReference) {
  Corpus corpus;
  const ClassifierOptions opts = corpus.filter.options().classifier;
  const TokenInterner& interner = global_interner();
  for (std::size_t i = 0; i < corpus.probes_ids.size(); ++i) {
    // The reference scores the probe's spellings in id order, so evidence
    // lines up entry for entry.
    const ScoreResult expected =
        ref_score(corpus.ref, spellings(corpus.probes_ids[i]), opts);
    const ScoreIdResult via_ids =
        corpus.filter.classify_ids(corpus.probes_ids[i]);

    // Bitwise equality on every aggregate and every evidence entry.
    EXPECT_EQ(expected.score, via_ids.score) << "probe " << i;
    EXPECT_EQ(expected.spam_evidence, via_ids.spam_evidence);
    EXPECT_EQ(expected.ham_evidence, via_ids.ham_evidence);
    EXPECT_EQ(expected.tokens_used, via_ids.tokens_used);
    EXPECT_EQ(expected.verdict, via_ids.verdict);
    ASSERT_EQ(expected.evidence.size(), via_ids.evidence.size());
    for (std::size_t j = 0; j < expected.evidence.size(); ++j) {
      const TokenIdEvidence& ev = via_ids.evidence[j];
      EXPECT_EQ(expected.evidence[j].token, interner.spelling(ev.id));
      EXPECT_EQ(expected.evidence[j].score, ev.score);
      EXPECT_EQ(expected.evidence[j].used, ev.used);
      EXPECT_EQ(ev.score, corpus.filter.classifier().token_score(
                              corpus.filter.database(), ev.id));
    }
  }
}

TEST(InternedEquivalence, ScoreIsIndependentOfIdOrder) {
  Corpus corpus(60, 20, 313);
  for (std::size_t i = 0; i < corpus.probes_ids.size(); ++i) {
    TokenIdList shuffled = corpus.probes_ids[i];
    util::Rng rng(1000 + i);
    rng.shuffle(shuffled);
    EXPECT_EQ(corpus.filter.classify_ids(corpus.probes_ids[i]).score,
              corpus.filter.classify_ids(shuffled).score)
        << "probe " << i;
  }
}

// --- training-state equivalence --------------------------------------------

TEST(InternedEquivalence, TrainUntrainCountsMatchStringKeyedReference) {
  const corpus::TrecLikeGenerator& gen = Corpus::generator();
  util::Rng rng(777);
  Filter filter;
  RefDatabase ref;
  std::vector<TokenSet> sets;
  std::vector<TokenIdSet> id_sets;
  for (int i = 0; i < 40; ++i) {
    const email::Message m =
        i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
    sets.push_back(string_tokens(filter, m));
    id_sets.push_back(filter.message_token_ids(m));
  }
  for (int i = 0; i < 40; ++i) {
    const auto copies = static_cast<std::uint32_t>(1 + i % 3);
    ref.train(sets[i], /*spam=*/i % 2 != 0, copies);
    if (i % 2 == 0) {
      filter.train_ham_ids(id_sets[i], copies);
    } else {
      filter.train_spam_ids(id_sets[i], copies);
    }
  }
  auto expect_equal_databases = [&] {
    const TokenDatabase& db = filter.database();
    EXPECT_EQ(db.spam_count(), ref.nspam);
    EXPECT_EQ(db.ham_count(), ref.nham);
    EXPECT_EQ(db.vocabulary_size(), ref.counts.size());
    for (const auto& [token, counts] : ref.counts) {
      EXPECT_EQ(db.counts(token), counts) << token;
    }
  };
  expect_equal_databases();
  // Untrain half of the messages again.
  for (int i = 0; i < 20; ++i) {
    const auto copies = static_cast<std::uint32_t>(1 + i % 3);
    ref.untrain(sets[i], /*spam=*/i % 2 != 0, copies);
    if (i % 2 == 0) {
      filter.untrain_ham_ids(id_sets[i], copies);
    } else {
      filter.untrain_spam_ids(id_sets[i], copies);
    }
  }
  expect_equal_databases();
}

TEST(InternedEquivalence, SaveLoadSaveIsByteStable) {
  Corpus corpus(50, 0, 555);
  std::stringstream first;
  corpus.filter.database().save(first);
  TokenDatabase loaded = TokenDatabase::load(first);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.vocabulary_size(),
            corpus.filter.database().vocabulary_size());
  EXPECT_EQ(loaded.tokens(), corpus.filter.database().tokens());
}

// --- thread-count equivalence ----------------------------------------------

// Classification scores must be bit-identical to the single-threaded
// string-keyed reference no matter how many threads tokenize/intern/classify
// concurrently (id *assignment* is scheduling-dependent; scores must not
// be).
TEST(InternedEquivalence, ScoresBitIdenticalAtOneAndFourThreads) {
  const corpus::TrecLikeGenerator& gen = Corpus::generator();
  Corpus corpus(80, 0, 441);
  const ClassifierOptions opts = corpus.filter.options().classifier;

  // Fresh probe messages, tokenized inside the parallel trials below so the
  // interner sees concurrent traffic.
  constexpr std::size_t kProbes = 48;
  std::vector<email::Message> messages;
  util::Rng rng(616);
  for (std::size_t i = 0; i < kProbes; ++i) {
    messages.push_back(i % 2 == 0 ? gen.generate_ham(rng)
                                  : gen.generate_spam(rng));
  }
  std::vector<double> expected;
  const Tokenizer tok(corpus.filter.options().tokenizer);
  for (const auto& m : messages) {
    expected.push_back(
        ref_score(corpus.ref, unique_tokens(tok.tokenize(m)), opts).score);
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    eval::Runner runner(1, threads);
    std::vector<double> scores = runner.map(
        messages.size(), /*salt=*/10, [&](std::size_t i, util::Rng&) {
          return corpus.filter
              .classify_ids(corpus.filter.message_token_ids(messages[i]))
              .score;
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
