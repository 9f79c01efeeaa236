// Property-based suites for the SpamBayes learner: class-symmetry of the
// score, robustness of the tokenizer on arbitrary bytes, serialization
// round trips over random databases, and tokenization stability across the
// email render/parse cycle.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "email/mbox.h"
#include "email/rfc2822.h"
#include "spambayes/filter.h"
#include "support/token_ids.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

using test_support::intern_tokens;

// --- class symmetry -------------------------------------------------------
//
// Eq. 1-4 are symmetric under swapping ham <-> spam: if every training
// email flips its label, f(w) -> 1 - f(w) and hence I(E) -> 1 - I(E).

class SymmetrySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymmetrySweep, MirroredTrainingMirrorsScore) {
  util::Rng rng(GetParam());
  TokenDatabase db, mirrored;
  for (int i = 0; i < 60; ++i) {
    TokenSet tokens;
    std::size_t n = 1 + rng.index(12);
    for (std::size_t j = 0; j < n; ++j) {
      tokens.push_back("w" + std::to_string(rng.index(50)));
    }
    const TokenIdSet ids = intern_tokens(unique_tokens(tokens));
    if (rng.bernoulli(0.5)) {
      db.train_spam_ids(ids);
      mirrored.train_ham_ids(ids);
    } else {
      db.train_ham_ids(ids);
      mirrored.train_spam_ids(ids);
    }
  }
  Classifier c;
  for (int probe = 0; probe < 10; ++probe) {
    TokenSet msg;
    std::size_t n = 1 + rng.index(15);
    for (std::size_t j = 0; j < n; ++j) {
      msg.push_back("w" + std::to_string(rng.index(60)));
    }
    const TokenIdSet ids = intern_tokens(unique_tokens(msg));
    const double i1 = c.score_ids(db, ids).score;
    const double i2 = c.score_ids(mirrored, ids).score;
    EXPECT_NEAR(i1, 1.0 - i2, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetrySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- tokenizer robustness --------------------------------------------------

class TokenizerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenizerFuzz, ArbitraryBytesNeverCrashOrViolateBounds) {
  util::Rng rng(GetParam());
  Tokenizer tok;
  for (int round = 0; round < 50; ++round) {
    std::string text;
    std::size_t len = rng.index(2000);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(static_cast<char>(rng.uniform_int(1, 255)));
    }
    TokenList tokens = tok.tokenize_text(text);
    for (const auto& t : tokens) {
      ASSERT_FALSE(t.empty());
      // Plain tokens respect the length window; pseudo-tokens carry their
      // prefixes.
      if (t.rfind("skip:", 0) == 0 || t.rfind("url:", 0) == 0) continue;
      EXPECT_GE(t.size(), tok.options().min_token_length);
      EXPECT_LE(t.size(), tok.options().max_token_length);
      // Lower-case invariant for ASCII letters.
      for (char ch : t) {
        EXPECT_FALSE(ch >= 'A' && ch <= 'Z') << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerFuzz,
                         ::testing::Values(11, 22, 33, 44));

// --- serialization round trip over random databases ------------------------

class SerializationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializationSweep, RandomDatabaseSurvivesRoundTrip) {
  util::Rng rng(GetParam());
  TokenDatabase db;
  for (int i = 0; i < 100; ++i) {
    TokenSet tokens;
    std::size_t n = 1 + rng.index(8);
    for (std::size_t j = 0; j < n; ++j) {
      switch (rng.index(3)) {
        case 0:
          tokens.push_back("word" + std::to_string(rng.index(200)));
          break;
        case 1:
          tokens.push_back("skip:x " + std::to_string(10 * rng.index(9)));
          break;
        default:
          tokens.push_back("url:host" + std::to_string(rng.index(40)));
      }
    }
    const TokenIdSet ids = intern_tokens(unique_tokens(tokens));
    auto copies = static_cast<std::uint32_t>(1 + rng.index(3));
    if (rng.bernoulli(0.5)) {
      db.train_spam_ids(ids, copies);
    } else {
      db.train_ham_ids(ids, copies);
    }
  }
  std::stringstream ss;
  db.save(ss);
  TokenDatabase loaded = TokenDatabase::load(ss);
  ASSERT_EQ(loaded.spam_count(), db.spam_count());
  ASSERT_EQ(loaded.ham_count(), db.ham_count());
  ASSERT_EQ(loaded.vocabulary_size(), db.vocabulary_size());
  for (const auto& [token, counts] : db.tokens()) {
    EXPECT_EQ(loaded.counts(token).spam, counts.spam) << token;
    EXPECT_EQ(loaded.counts(token).ham, counts.ham) << token;
  }
  // And classification through a filter is bit-identical.
  Classifier c;
  const TokenIdSet probe =
      intern_tokens({"word1", "word5", "url:host3", "never-seen"});
  EXPECT_DOUBLE_EQ(c.score_ids(db, probe).score,
                   c.score_ids(loaded, probe).score);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationSweep,
                         ::testing::Values(101, 202, 303));

// --- end-to-end stability: corpus -> mbox -> parse -> tokenize -------------

TEST(PipelineStability, MboxRoundTripPreservesTokenization) {
  corpus::TrecLikeGenerator gen;
  util::Rng rng(7);
  Tokenizer tok;
  std::vector<email::Message> originals;
  for (int i = 0; i < 20; ++i) {
    originals.push_back(gen.generate_ham(rng));
    originals.push_back(gen.generate_spam(rng));
  }
  std::string mbox = email::render_mbox(originals);
  std::vector<email::Message> reloaded = email::parse_mbox(mbox);
  ASSERT_EQ(reloaded.size(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(unique_tokens(tok.tokenize(originals[i])),
              unique_tokens(tok.tokenize(reloaded[i])))
        << "message " << i;
  }
}

TEST(PipelineStability, RenderParsePreservesClassification) {
  corpus::TrecLikeGenerator gen;
  util::Rng rng(8);
  Filter filter;
  for (int i = 0; i < 60; ++i) {
    filter.train_ham(gen.generate_ham(rng));
    filter.train_spam(gen.generate_spam(rng));
  }
  for (int i = 0; i < 10; ++i) {
    email::Message original = gen.generate_ham(rng);
    email::Message round_trip =
        email::parse_message(email::render_message(original));
    EXPECT_DOUBLE_EQ(filter.classify(original).score,
                     filter.classify(round_trip).score);
  }
}

}  // namespace
}  // namespace sbx::spambayes
