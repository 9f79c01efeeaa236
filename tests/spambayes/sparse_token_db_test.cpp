// Tests for spambayes/sparse_token_db: the per-user overlay counts type.
// Its counts, class totals, SBXDB 1 bytes and error behaviour must match
// TokenDatabase's for every train/untrain sequence, and its footprint must
// follow the entries it holds.
#include "spambayes/sparse_token_db.h"

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spambayes/token_db.h"
#include "spambayes/tokenizer.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::spambayes {
namespace {

std::string saved(const TokenDatabase& db) {
  std::ostringstream out;
  db.save(out);
  return out.str();
}

std::string saved(const SparseTokenDatabase& db) {
  std::ostringstream out;
  db.save(out);
  return out.str();
}

/// Interns `n` tokens private to one test (ids land far apart in the
/// global interner when other tests interned in between).
std::vector<TokenId> fresh_ids(const std::string& tag, int n) {
  std::vector<TokenId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(global_interner().intern(tag + std::to_string(i)));
  }
  return ids;
}

/// A random sorted subset of `pool`.
TokenIdSet sample(const std::vector<TokenId>& pool, util::Rng& rng) {
  TokenIdSet out;
  for (TokenId id : pool) {
    if (rng.index(3) == 0) out.push_back(id);
  }
  return unique_token_ids(out);
}

// One randomized train/untrain sequence applied to both types, with exact
// untrains that take entries back to zero: counts, totals, vocabulary and
// save() bytes agree after every step, and load() round-trips.
TEST(SparseTokenDatabase, MatchesDenseDatabaseAndItsWireFormat) {
  const std::vector<TokenId> pool = fresh_ids("sparse-eq-", 300);
  util::Rng rng(17);
  TokenDatabase dense;
  SparseTokenDatabase sparse;
  struct Trained {
    TokenIdSet ids;
    bool spam;
    std::uint32_t copies;
  };
  std::vector<Trained> trained;
  for (int step = 0; step < 400; ++step) {
    if (!trained.empty() && rng.index(3) == 0) {
      const std::size_t pick = rng.index(trained.size());
      const Trained t = trained[pick];
      trained.erase(trained.begin() + static_cast<std::ptrdiff_t>(pick));
      if (t.spam) {
        dense.untrain_spam_ids(t.ids, t.copies);
        sparse.untrain_spam_ids(t.ids, t.copies);
      } else {
        dense.untrain_ham_ids(t.ids, t.copies);
        sparse.untrain_ham_ids(t.ids, t.copies);
      }
    } else {
      const Trained t{sample(pool, rng), rng.index(2) == 0,
                      static_cast<std::uint32_t>(1 + rng.index(3))};
      if (t.spam) {
        dense.train_spam_ids(t.ids, t.copies);
        sparse.train_spam_ids(t.ids, t.copies);
      } else {
        dense.train_ham_ids(t.ids, t.copies);
        sparse.train_ham_ids(t.ids, t.copies);
      }
      trained.push_back(t);
    }
    ASSERT_EQ(sparse.spam_count(), dense.spam_count());
    ASSERT_EQ(sparse.ham_count(), dense.ham_count());
    ASSERT_EQ(sparse.vocabulary_size(), dense.vocabulary_size());
    for (TokenId id : pool) ASSERT_EQ(sparse.counts(id), dense.counts(id));
    if (step % 50 == 0) {
      ASSERT_EQ(saved(sparse), saved(dense));
    }
  }
  const std::string bytes = saved(sparse);
  EXPECT_EQ(bytes, saved(dense));

  std::istringstream in(bytes);
  const SparseTokenDatabase loaded = SparseTokenDatabase::load(in);
  EXPECT_EQ(saved(loaded), bytes);
  EXPECT_EQ(loaded.vocabulary_size(), sparse.vocabulary_size());
  for (TokenId id : pool) EXPECT_EQ(loaded.counts(id), sparse.counts(id));

  // Untraining everything left returns it to the empty database.
  for (const Trained& t : trained) {
    if (t.spam) {
      sparse.untrain_spam_ids(t.ids, t.copies);
    } else {
      sparse.untrain_ham_ids(t.ids, t.copies);
    }
  }
  EXPECT_EQ(sparse.vocabulary_size(), 0u);
  EXPECT_EQ(saved(sparse), saved(TokenDatabase{}));
}

TEST(SparseTokenDatabase, BadUntrainChangesNeitherContentsNorGeneration) {
  const std::vector<TokenId> ids = fresh_ids("sparse-bad-", 4);
  SparseTokenDatabase db;
  db.train_spam_ids({ids[0], ids[1]}, 2);
  db.train_ham_ids({ids[1], ids[2]});
  const std::string before = saved(db);
  const std::uint64_t generation = db.generation();

  // Token never trained (the valid ones come first in the set).
  EXPECT_THROW(db.untrain_spam_ids({ids[0], ids[1], ids[3]}),
               InvalidArgument);
  // More copies than one token holds.
  EXPECT_THROW(db.untrain_ham_ids({ids[1], ids[2]}, 2), InvalidArgument);
  // A class with no messages at all.
  SparseTokenDatabase empty;
  EXPECT_THROW(empty.untrain_ham_ids({ids[0]}), InvalidArgument);

  EXPECT_EQ(saved(db), before);
  EXPECT_EQ(db.generation(), generation);
  EXPECT_EQ(db.counts(ids[1]), (TokenCounts{2, 1}));
}

TEST(SparseTokenDatabase, TrainPastUint32ClassTotalThrowsAndChangesNothing) {
  const std::vector<TokenId> ids = fresh_ids("sparse-wrap-", 2);
  SparseTokenDatabase db;
  db.train_spam_ids({ids[0]}, std::numeric_limits<std::uint32_t>::max() - 1);
  const std::uint64_t generation = db.generation();
  EXPECT_THROW(db.train_spam_ids({ids[1]}, 2), InvalidArgument);
  EXPECT_EQ(db.spam_count(), std::numeric_limits<std::uint32_t>::max() - 1);
  EXPECT_EQ(db.vocabulary_size(), 1u);
  EXPECT_EQ(db.generation(), generation);
  db.train_spam_ids({ids[1]}, 1);  // exactly UINT32_MAX fits
  EXPECT_EQ(db.spam_count(), std::numeric_limits<std::uint32_t>::max());
}

TEST(SparseTokenDatabase, GenerationsComeFromTheTokenDatabaseCounter) {
  const std::vector<TokenId> ids = fresh_ids("sparse-gen-", 1);
  const TokenDatabase dense_before;
  SparseTokenDatabase db;
  db.train_spam_ids(ids);
  const TokenDatabase dense_after;
  EXPECT_GT(db.generation(), dense_before.generation());
  EXPECT_LT(db.generation(), dense_after.generation());

  SparseTokenDatabase copy = db;  // a copy is the same state
  EXPECT_EQ(copy.generation(), db.generation());
  copy.train_spam_ids(ids, 0);  // no-op
  EXPECT_EQ(copy.generation(), db.generation());
  copy.untrain_spam_ids(ids);
  EXPECT_GT(copy.generation(), dense_after.generation());
  EXPECT_EQ(db.counts(ids[0]).spam, 1u);  // the original is untouched
}

// Training and untraining one message over and over keeps the table at
// the size one copy of the message needs: emptied entries are removed,
// not left behind as tombstones.
TEST(SparseTokenDatabase, TrainUntrainChurnDoesNotGrowTheTable) {
  const TokenIdSet message =
      unique_token_ids(fresh_ids("sparse-churn-", 150));
  SparseTokenDatabase db;
  db.train_spam_ids(message);
  const std::size_t bytes = db.bytes();
  for (int i = 0; i < 1000; ++i) {
    db.untrain_spam_ids(message);
    db.train_ham_ids(message);
    db.untrain_ham_ids(message);
    db.train_spam_ids(message);
  }
  EXPECT_EQ(db.bytes(), bytes);
  EXPECT_EQ(db.vocabulary_size(), message.size());
  db.untrain_spam_ids(message);
  EXPECT_EQ(db.vocabulary_size(), 0u);
  for (TokenId id : message) EXPECT_EQ(db.counts(id), TokenCounts{});
}

TEST(SparseTokenDatabase, LoadRejectsMalformedInput) {
  for (const std::string bad :
       {"", "SBXDB 2\n0 0\n", "SBXDB 1\nx\n", "SBXDB 1\n1 0\n1 0\n",
        "SBXDB 1\n1 0\n0 0 tok\n", "SBXDB 1\n1 0\nx y tok\n"}) {
    std::istringstream in(bad);
    EXPECT_THROW(SparseTokenDatabase::load(in), ParseError) << bad;
  }
}

}  // namespace
}  // namespace sbx::spambayes
