// ModelShard / UserModel / routing-layer unit tests, including the
// concurrent classify-during-mutation test the TSan build exercises. Every
// mutation goes through ModelShard::apply_mutation, the one path the
// frontend uses; these shards have no WAL attached.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "serve/shard.h"
#include "serve/wal.h"
#include "util/error.h"
#include "util/sharding.h"

namespace sbx::serve {
namespace {

spambayes::TokenIdSet ids_for(std::initializer_list<spambayes::TokenId> ids) {
  return spambayes::TokenIdSet(ids);
}

/// One Train (kWalOpTrain) or Untrain (kWalOpUntrain) without a request
/// id. With no WAL attached the shard never reads the message text.
MutationResult mutate(ModelShard& shard, std::size_t local, std::uint8_t op,
                      const spambayes::TokenIdSet& ids, bool as_spam,
                      std::uint32_t copies) {
  MutationRequest req;
  req.op = op;
  req.as_spam = as_spam;
  req.copies = copies;
  return shard.apply_mutation(local, req, ids);
}

MutationResult train(ModelShard& shard, std::size_t local,
                     const spambayes::TokenIdSet& ids, bool as_spam,
                     std::uint32_t copies) {
  return mutate(shard, local, kWalOpTrain, ids, as_spam, copies);
}

MutationResult untrain(ModelShard& shard, std::size_t local,
                       const spambayes::TokenIdSet& ids, bool as_spam,
                       std::uint32_t copies) {
  return mutate(shard, local, kWalOpUntrain, ids, as_spam, copies);
}

TEST(Sharding, Mix64SpreadsSequentialKeys) {
  // Sequential user ids must not land on sequential shards; check the
  // splitmix64 route covers all shards for a small population.
  std::vector<int> hits(4, 0);
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    ++hits[util::shard_of(uid, 4)];
  }
  for (int h : hits) EXPECT_GT(h, 0);
  EXPECT_THROW(util::shard_of(1, 0), InvalidArgument);
}

TEST(ModelShard, RejectsZeroUsersAndOutOfRangeSlots) {
  EXPECT_THROW(ModelShard(0), InvalidArgument);
  ModelShard shard(2);
  EXPECT_THROW(shard.overlay(2), InvalidArgument);
}

TEST(ModelShard, TrainPublishesAndUntrainReverses) {
  ModelShard shard(3);
  EXPECT_EQ(shard.overlay(1), nullptr);

  train(shard, 1, ids_for({1, 2, 3}), /*as_spam=*/true, /*copies=*/2);
  const OverlaySnapshot snap = shard.overlay(1);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->spam_count(), 2u);
  EXPECT_EQ(snap->counts(2).spam, 2u);
  EXPECT_EQ(shard.overlay(0), nullptr);  // neighbors untouched

  untrain(shard, 1, ids_for({1, 2, 3}), /*as_spam=*/true, /*copies=*/2);
  const OverlaySnapshot after = shard.overlay(1);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->spam_count(), 0u);
  // The snapshot taken before the untrain is immutable: it still shows
  // the trained counts (this is what makes mid-batch reads safe).
  EXPECT_EQ(snap->spam_count(), 2u);
}

TEST(ModelShard, UntrainOfUntrainedUserThrowsAndChangesNothing) {
  ModelShard shard(1);
  EXPECT_THROW(untrain(shard, 0, ids_for({5}), true, 1), Error);
  EXPECT_EQ(shard.overlay(0), nullptr);

  train(shard, 0, ids_for({5}), /*as_spam=*/false, 1);
  const OverlaySnapshot published = shard.overlay(0);
  // Reversing a *different* message fails loudly and leaves the published
  // overlay exactly as it was.
  EXPECT_THROW(untrain(shard, 0, ids_for({6}), false, 1), Error);
  EXPECT_EQ(shard.overlay(0), published);
}

TEST(ModelShard, StatsAggregateUsersAndCounters) {
  ModelShard shard(4);
  train(shard, 0, ids_for({1}), true, 1);
  train(shard, 2, ids_for({2}), false, 1);
  train(shard, 2, ids_for({3}), false, 1);
  shard.record_classified(1, 10);
  const ShardStats s = shard.stats();
  EXPECT_EQ(s.users, 4u);
  EXPECT_EQ(s.overlay_users, 2u);
  EXPECT_EQ(s.classified_messages, 10u);
  EXPECT_EQ(s.mutations, 3u);
}

TEST(ModelShard, GenerationsStrictlyIncreaseAcrossPublishes) {
  ModelShard shard(1);
  std::uint64_t last = 0;
  for (int i = 0; i < 10; ++i) {
    const MutationResult result = train(
        shard, 0, ids_for({static_cast<spambayes::TokenId>(i)}), true, 1);
    const std::uint64_t gen = shard.overlay(0)->generation();
    EXPECT_EQ(result.generation, gen);
    EXPECT_GT(gen, last);
    last = gen;
  }
}

// The TSan target: lock-free snapshot reads racing copy-mutate-publish
// writers. Readers continuously acquire snapshots and walk their counts
// while two writer threads train/untrain through the shard lock.
TEST(ModelShard, ConcurrentSnapshotReadsDuringMutation) {
  ModelShard shard(2);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const OverlaySnapshot snap = shard.overlay(0);
        if (snap) {
          // Touch the snapshot's data; TSan flags any write racing this.
          volatile std::uint32_t sink =
              snap->spam_count() + snap->counts(1).spam;
          (void)sink;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        train(shard, 0, ids_for({1, 2}), /*as_spam=*/w == 0, 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0u);
  const OverlaySnapshot final_snap = shard.overlay(0);
  ASSERT_NE(final_snap, nullptr);
  EXPECT_EQ(final_snap->spam_count() + final_snap->ham_count(), 400u);
}

}  // namespace
}  // namespace sbx::serve
