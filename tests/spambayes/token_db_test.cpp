// Tests for spambayes/token_db: counting, batching, exact untraining,
// merging and serialization.
#include "spambayes/token_db.h"

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "spambayes/tokenizer.h"
#include "support/token_ids.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

using test_support::intern_tokens;

TEST(TokenDatabase, CountsPresencePerEmail) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"buy", "now"}));
  db.train_spam_ids(intern_tokens({"buy"}));
  db.train_ham_ids(intern_tokens({"meeting", "now"}));
  EXPECT_EQ(db.spam_count(), 2u);
  EXPECT_EQ(db.ham_count(), 1u);
  EXPECT_EQ(db.counts("buy").spam, 2u);
  EXPECT_EQ(db.counts("buy").ham, 0u);
  EXPECT_EQ(db.counts("now").spam, 1u);
  EXPECT_EQ(db.counts("now").ham, 1u);
  EXPECT_EQ(db.counts("unseen").spam, 0u);
  EXPECT_EQ(db.counts("unseen").ham, 0u);
  EXPECT_EQ(db.vocabulary_size(), 3u);
}

TEST(TokenDatabase, BatchTrainEqualsRepeatedTrain) {
  const TokenIdSet ids = intern_tokens({"alpha", "beta", "gamma"});
  TokenDatabase repeated;
  for (int i = 0; i < 57; ++i) repeated.train_spam_ids(ids);
  TokenDatabase batched;
  batched.train_spam_ids(ids, 57);
  EXPECT_EQ(batched.spam_count(), repeated.spam_count());
  for (TokenId id : ids) {
    EXPECT_EQ(batched.counts(id).spam, repeated.counts(id).spam);
  }
}

TEST(TokenDatabase, ZeroCopiesIsNoop) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"x"}), 0);
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 0u);
}

TEST(TokenDatabase, UntrainExactlyReversesTrain) {
  TokenDatabase db;
  db.train_ham_ids(intern_tokens({"keep", "shared"}));
  db.train_spam_ids(intern_tokens({"shared", "junk"}));

  TokenDatabase snapshot = db;
  db.train_spam_ids(intern_tokens({"poison", "shared"}), 5);
  db.untrain_spam_ids(intern_tokens({"poison", "shared"}), 5);

  EXPECT_EQ(db.spam_count(), snapshot.spam_count());
  EXPECT_EQ(db.ham_count(), snapshot.ham_count());
  EXPECT_EQ(db.vocabulary_size(), snapshot.vocabulary_size());
  for (const auto& [token, counts] : snapshot.tokens()) {
    EXPECT_EQ(db.counts(token).spam, counts.spam) << token;
    EXPECT_EQ(db.counts(token).ham, counts.ham) << token;
  }
  // "poison" was fully removed, not left at zero.
  EXPECT_EQ(db.counts("poison").spam, 0u);
}

TEST(TokenDatabase, UntrainUnknownThrows) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"known"}));
  const TokenIdSet known = intern_tokens({"known"});
  EXPECT_THROW(db.untrain_spam_ids(intern_tokens({"unknown"})),
               InvalidArgument);
  EXPECT_THROW(db.untrain_spam_ids(known, 2), InvalidArgument);
  EXPECT_THROW(db.untrain_ham_ids(known), InvalidArgument);
  TokenDatabase empty;
  EXPECT_THROW(empty.untrain_spam_ids(intern_tokens({"x"})), InvalidArgument);
}

TEST(TokenDatabase, MergeAddsCounts) {
  TokenDatabase a, b;
  a.train_spam_ids(intern_tokens({"x", "y"}));
  b.train_spam_ids(intern_tokens({"y", "z"}), 2);
  b.train_ham_ids(intern_tokens({"x"}));
  a.merge(b);
  EXPECT_EQ(a.spam_count(), 3u);
  EXPECT_EQ(a.ham_count(), 1u);
  EXPECT_EQ(a.counts("y").spam, 3u);
  EXPECT_EQ(a.counts("x").spam, 1u);
  EXPECT_EQ(a.counts("x").ham, 1u);
  EXPECT_EQ(a.counts("z").spam, 2u);
}

TEST(TokenDatabase, SerializationRoundTrip) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"buy", "skip:x 20", "url:pills"}));
  db.train_ham_ids(intern_tokens({"meeting", "skip:x 20"}), 3);

  std::stringstream ss;
  db.save(ss);
  TokenDatabase loaded = TokenDatabase::load(ss);

  EXPECT_EQ(loaded.spam_count(), db.spam_count());
  EXPECT_EQ(loaded.ham_count(), db.ham_count());
  EXPECT_EQ(loaded.vocabulary_size(), db.vocabulary_size());
  // Tokens containing spaces survive (skip tokens embed a space).
  EXPECT_EQ(loaded.counts("skip:x 20").ham, 3u);
  EXPECT_EQ(loaded.counts("skip:x 20").spam, 1u);
  EXPECT_EQ(loaded.counts("url:pills").spam, 1u);
}

TEST(TokenDatabase, LoadRejectsMalformedInput) {
  auto load_str = [](const std::string& s) {
    std::stringstream ss(s);
    return TokenDatabase::load(ss);
  };
  EXPECT_THROW(load_str(""), ParseError);
  EXPECT_THROW(load_str("WRONG 1\n0 0\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 2\n0 0\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 1\nx y\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 1\n1 1\nnot_numbers here\n"), ParseError);
  EXPECT_THROW(load_str("SBXDB 1\n1 1\n1 0\n"), ParseError);     // no token
  EXPECT_THROW(load_str("SBXDB 1\n1 1\n0 0 token\n"), ParseError);  // zeroed
}

// Untraining a message that was never trained checks only the tokens it
// lists, so a token count can end up above its class total. Such a
// database must save and load unchanged, and a train that would wrap a
// count must throw instead.
TEST(TokenDatabase, CountAboveClassTotalRoundTripsAndTrainCannotWrapIt) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"above-a", "above-b"}));
  db.train_spam_ids(intern_tokens({"above-a"}));
  db.untrain_spam_ids(intern_tokens({"above-b"}));
  db.train_ham_ids(intern_tokens({"above-c"}), 2);
  db.untrain_ham_ids({});
  EXPECT_EQ(db.counts("above-a").spam, 2u);
  EXPECT_EQ(db.spam_count(), 1u);
  EXPECT_EQ(db.counts("above-c").ham, 2u);
  EXPECT_EQ(db.ham_count(), 1u);

  std::stringstream first;
  db.save(first);
  const std::string bytes = first.str();
  TokenDatabase loaded = TokenDatabase::load(first);
  std::ostringstream second;
  loaded.save(second);
  EXPECT_EQ(second.str(), bytes);
  EXPECT_EQ(loaded.counts("above-a").spam, 2u);

  // Interned first, so its increment precedes the wrap and is rolled back.
  const TokenId fresh = global_interner().intern("above-fresh");
  std::stringstream wrap("SBXDB 1\n1 0\n4294967295 0 above-wraptoken\n");
  TokenDatabase near_max = TokenDatabase::load(wrap);
  std::ostringstream before;
  near_max.save(before);
  const std::uint64_t generation = near_max.generation();
  const TokenId id = *global_interner().find("above-wraptoken");
  ASSERT_LT(fresh, id);
  EXPECT_THROW(near_max.train_spam_ids(unique_token_ids({fresh, id})),
               InvalidArgument);
  std::ostringstream after;
  near_max.save(after);
  EXPECT_EQ(after.str(), before.str());
  EXPECT_EQ(near_max.counts(fresh), TokenCounts{});
  EXPECT_EQ(near_max.vocabulary_size(), 1u);
  EXPECT_EQ(near_max.generation(), generation);
}

TEST(TokenDatabase, TrainPastUint32ClassTotalThrowsAndChangesNothing) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"total-a"}), 4294967294u);
  const std::uint64_t generation = db.generation();
  EXPECT_THROW(db.train_spam_ids(intern_tokens({"total-b"}), 2),
               InvalidArgument);
  EXPECT_EQ(db.spam_count(), 4294967294u);
  EXPECT_EQ(db.vocabulary_size(), 1u);
  EXPECT_EQ(db.generation(), generation);
  db.train_spam_ids(intern_tokens({"total-b"}), 1);  // exactly UINT32_MAX fits
  EXPECT_EQ(db.spam_count(), 4294967295u);
}

TEST(TokenDatabase, FileRoundTrip) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"persisted"}));
  auto path = std::filesystem::temp_directory_path() / "sbx_tokendb_test.db";
  db.save_file(path.string());
  TokenDatabase loaded = TokenDatabase::load_file(path.string());
  EXPECT_EQ(loaded.counts("persisted").spam, 1u);
  std::filesystem::remove(path);
  EXPECT_THROW(TokenDatabase::load_file("/nonexistent/db"), IoError);
}

TEST(TokenDatabase, RandomizedTrainUntrainInverse) {
  // Property: any interleaving of train operations followed by their exact
  // reversal restores the empty database.
  util::Rng rng(99);
  TokenDatabase db;
  std::vector<std::tuple<TokenIdSet, std::uint32_t, bool>> ops;
  for (int i = 0; i < 200; ++i) {
    TokenSet tokens;
    std::size_t n = 1 + rng.index(5);
    for (std::size_t j = 0; j < n; ++j) {
      tokens.push_back("tok" + std::to_string(rng.index(30)));
    }
    TokenIdSet ids = intern_tokens(unique_tokens(tokens));
    auto copies = static_cast<std::uint32_t>(1 + rng.index(4));
    bool spam = rng.bernoulli(0.5);
    if (spam) {
      db.train_spam_ids(ids, copies);
    } else {
      db.train_ham_ids(ids, copies);
    }
    ops.emplace_back(std::move(ids), copies, spam);
  }
  // Reverse in random order (counts are commutative).
  rng.shuffle(ops);
  for (const auto& [ids, copies, spam] : ops) {
    if (spam) {
      db.untrain_spam_ids(ids, copies);
    } else {
      db.untrain_ham_ids(ids, copies);
    }
  }
  EXPECT_EQ(db.spam_count(), 0u);
  EXPECT_EQ(db.ham_count(), 0u);
  EXPECT_EQ(db.vocabulary_size(), 0u);
}

}  // namespace
}  // namespace sbx::spambayes
