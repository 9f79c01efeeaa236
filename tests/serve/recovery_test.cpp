// Crash-recovery tests: snapshot+WAL replay rebuilds a frontend whose
// classify scores are bit-identical to an uninterrupted run, torn tails
// are dropped (and repaired only when asked), dedup windows survive
// recovery, and the manifest round-trips.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "serve/wal.h"
#include "spambayes/interner.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::serve {
namespace {

BaseModelConfig small_base() { return {/*base_size=*/200, 0.5, /*seed=*/5}; }

constexpr std::size_t kShards = 2;
constexpr std::size_t kUsers = 8;

/// A fresh data dir per test, removed on scope exit.
struct TempDataDir {
  std::string path;
  explicit TempDataDir(const std::string& tag)
      : path(testing::TempDir() + "sbx_recovery_" + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempDataDir() { std::filesystem::remove_all(path); }
};

std::unique_ptr<ServeFrontend> durable_frontend(const std::string& data_dir,
                                                std::uint64_t snapshot_every) {
  DurabilityConfig dc;
  dc.data_dir = data_dir;
  dc.fsync = FsyncMode::kNone;  // page cache is durable enough for tests
  dc.snapshot_every = snapshot_every;
  return std::make_unique<ServeFrontend>(
      build_base_filter(small_base()), FrontendConfig{kShards, kUsers},
      std::make_unique<Durability>(dc, kShards));
}

std::unique_ptr<ServeFrontend> memory_frontend() {
  return std::make_unique<ServeFrontend>(build_base_filter(small_base()),
                                         FrontendConfig{kShards, kUsers});
}

std::vector<std::string> make_messages(int n, std::uint64_t seed) {
  corpus::TrecLikeGenerator generator;
  util::Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(email::render_message(i % 2 == 0
                                            ? generator.generate_ham(rng)
                                            : generator.generate_spam(rng)));
  }
  return out;
}

/// Mixed deterministic mutation workload applied to any frontend.
void apply_workload(ServeFrontend& frontend, int mutations,
                    std::uint64_t seed) {
  const auto msgs = make_messages(mutations, seed);
  util::Rng rng(seed + 1);
  for (int i = 0; i < mutations; ++i) {
    TrainRequest t;
    t.user_id = rng.index(kUsers);
    t.as_spam = rng.bernoulli(0.5);
    t.copies = 1 + static_cast<std::uint32_t>(rng.index(2));
    t.message = msgs[static_cast<std::size_t>(i)];
    t.request_id = seed * 1000 + static_cast<std::uint64_t>(i) + 1;
    frontend.train(t);
    if (i % 5 == 4) {
      // Untrain something we just trained — exercises the untrain path
      // with counts that cannot go negative.
      UntrainRequest u;
      u.user_id = t.user_id;
      u.as_spam = t.as_spam;
      u.copies = 1;
      u.message = t.message;
      frontend.untrain(u);
    }
  }
}

/// Bit-exact classify comparison over every user.
void expect_bit_identical(ServeFrontend& got, ServeFrontend& want,
                          std::uint64_t probe_seed) {
  const auto probes = make_messages(6, probe_seed);
  for (std::uint64_t uid = 0; uid < kUsers; ++uid) {
    ClassifyBatchRequest c;
    c.user_id = uid;
    c.messages = probes;
    const auto a = got.classify_batch(c);
    const auto b = want.classify_batch(c);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      // operator== on doubles: identical bit patterns or bust (scores are
      // never NaN).
      ASSERT_EQ(a.results[i].score, b.results[i].score)
          << "user " << uid << " probe " << i;
      ASSERT_EQ(a.results[i].verdict, b.results[i].verdict);
    }
  }
}

TEST(Recovery, WalOnlyReplayIsBitIdenticalToUninterruptedRun) {
  TempDataDir dir("walonly");
  auto reference = memory_frontend();
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/0);
    apply_workload(*durable, 30, 11);
  }  // destructor = abrupt end; nothing flushed beyond the appends
  apply_workload(*reference, 30, 11);

  auto recovered = memory_frontend();
  const RecoveryStats rs = recover(*recovered, dir.path);
  EXPECT_EQ(rs.snapshot_users, 0u);
  EXPECT_EQ(rs.replayed_records, 36u);  // 30 trains + 6 untrains
  EXPECT_EQ(rs.torn_dropped, 0u);
  EXPECT_GT(rs.max_seqno, 0u);
  expect_bit_identical(*recovered, *reference, 77);
}

TEST(Recovery, SnapshotPlusTailReplayIsBitIdentical) {
  TempDataDir dir("snaptail");
  auto reference = memory_frontend();
  {
    // Snapshot every 10 records: the workload crosses several checkpoint
    // boundaries, leaving snapshot + a short WAL tail behind.
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/10);
    apply_workload(*durable, 40, 13);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
  }
  apply_workload(*reference, 40, 13);

  auto recovered = memory_frontend();
  const RecoveryStats rs = recover(*recovered, dir.path);
  EXPECT_GT(rs.snapshot_users, 0u);
  // The snapshot folded most records away; only the tail replays.
  EXPECT_LT(rs.replayed_records, 48u);
  expect_bit_identical(*recovered, *reference, 78);
}

TEST(Recovery, RecoveredServerContinuesAndStaysIdentical) {
  TempDataDir dir("continue");
  auto reference = memory_frontend();
  {
    auto durable = durable_frontend(dir.path, 0);
    apply_workload(*durable, 20, 17);
  }
  apply_workload(*reference, 20, 17);

  // Second generation: recover into a *durable* frontend (as sbx_serve
  // does), keep mutating, crash again, recover again.
  {
    auto durable = durable_frontend(dir.path, 0);
    const RecoveryStats rs = recover(*durable, dir.path, true);
    durable->durability()->note_recovered_seqno(rs.max_seqno);
    apply_workload(*durable, 15, 19);
  }
  apply_workload(*reference, 15, 19);

  auto recovered = memory_frontend();
  recover(*recovered, dir.path);
  expect_bit_identical(*recovered, *reference, 79);
}

TEST(Recovery, TornTailIsDroppedAndRepairedOnlyWhenAsked) {
  TempDataDir dir("torn");
  {
    auto durable = durable_frontend(dir.path, 0);
    apply_workload(*durable, 10, 23);
  }
  const std::string wal0 = wal_path_in(dir.path, 0);
  const auto full_size = std::filesystem::file_size(wal0);
  // Tear the last record: chop 3 bytes off.
  std::filesystem::resize_file(wal0, full_size - 3);

  // Read-only recovery drops the tail but leaves the file alone.
  {
    auto mirror = memory_frontend();
    const RecoveryStats rs = recover(*mirror, dir.path, false);
    EXPECT_EQ(rs.torn_dropped, 1u);
    EXPECT_EQ(std::filesystem::file_size(wal0), full_size - 3);
  }
  // The serving daemon repairs: the file shrinks to the valid prefix so
  // future O_APPEND writes stay reachable.
  auto server = memory_frontend();
  const RecoveryStats rs = recover(*server, dir.path, true);
  EXPECT_EQ(rs.torn_dropped, 1u);
  EXPECT_LT(std::filesystem::file_size(wal0), full_size - 3);
  // The repaired log is whole again: no torn bytes remain past the valid
  // prefix.
  const WalReadStats after = read_wal(wal0, [](const WalRecord&) {});
  EXPECT_EQ(after.bytes_used, after.bytes_total);
  EXPECT_EQ(after.dropped_torn, 0u);

  // Both recoveries agree with each other (the torn record is gone from
  // both) — rerun read-only and compare.
  auto mirror = memory_frontend();
  recover(*mirror, dir.path, false);
  expect_bit_identical(*server, *mirror, 80);
}

TEST(Recovery, DedupAbsorbsRetriesBeforeAndAfterRecovery) {
  TempDataDir dir("dedup");
  const auto msgs = make_messages(2, 31);
  TrainRequest t;
  t.user_id = 3;
  t.as_spam = true;
  t.copies = 1;
  t.message = msgs[0];
  t.request_id = 555;

  std::uint64_t spam_after_first = 0;
  {
    auto durable = durable_frontend(dir.path, 0);
    const TrainResponse first = durable->train(t);
    spam_after_first = first.overlay_spam;
    // Same request id again = retry: counts must not move.
    const TrainResponse retry = durable->train(t);
    EXPECT_EQ(retry.overlay_spam, spam_after_first);
    EXPECT_EQ(durable->stats().deduped_mutations, 1u);
    EXPECT_EQ(durable->stats().train_requests, 2u);
  }

  // The dedup window is durable: a retry arriving *after* a crash+recover
  // (e.g. the client reconnected to the restarted server) is still
  // absorbed.
  auto recovered = durable_frontend(dir.path, 0);
  const RecoveryStats rs = recover(*recovered, dir.path, true);
  recovered->durability()->note_recovered_seqno(rs.max_seqno);
  EXPECT_EQ(rs.replayed_records, 1u);  // the dedup'd retry was never logged
  const TrainResponse late_retry = recovered->train(t);
  EXPECT_EQ(late_retry.overlay_spam, spam_after_first);
  EXPECT_EQ(recovered->stats().deduped_mutations, 1u);

  // A different request id applies normally.
  t.request_id = 556;
  t.message = msgs[1];
  const TrainResponse fresh = recovered->train(t);
  EXPECT_EQ(fresh.overlay_spam, spam_after_first + 1);
}

TEST(Recovery, DedupWindowSurvivesSnapshotting) {
  TempDataDir dir("dedupsnap");
  const auto msgs = make_messages(1, 37);
  TrainRequest t;
  t.user_id = 1;
  t.as_spam = false;
  t.copies = 1;
  t.message = msgs[0];
  t.request_id = 777;
  {
    // snapshot_every=1: the train is folded into a snapshot immediately
    // and the WAL truncated — the dedup entry must ride in the snapshot.
    auto durable = durable_frontend(dir.path, 1);
    durable->train(t);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
  }
  auto recovered = durable_frontend(dir.path, 1);
  const RecoveryStats rs = recover(*recovered, dir.path, true);
  recovered->durability()->note_recovered_seqno(rs.max_seqno);
  EXPECT_EQ(rs.replayed_records, 0u);
  EXPECT_GT(rs.snapshot_users, 0u);
  const TrainResponse retry = recovered->train(t);
  EXPECT_EQ(retry.overlay_ham, 1u);
  EXPECT_EQ(recovered->stats().deduped_mutations, 1u);
}

// A retried Untrain must be absorbed by dedup even when its message holds
// a word the restarted process never interned: the filler trains compact
// Train(M) + Untrain(M) into a full snapshot, which omits the word's zero
// counts. The first run is a child process, because the process-global
// interner only grows and would still know the word after a "restart".
TEST(Recovery, RetriedUntrainOfWordOnlyTheSnapshotSawIsDeduped) {
  TempDataDir dir("untrainretry");
  const auto known = [] {
    return spambayes::global_interner().find("qzretrywx").has_value();
  };
  ASSERT_FALSE(known());
  TrainRequest t;
  t.user_id = 2;
  t.message = "Subject: retry\n\nplease keep qzretrywx\n";
  t.request_id = 887;
  UntrainRequest u;
  u.user_id = t.user_id;
  u.message = t.message;
  u.request_id = 888;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      auto durable = durable_frontend(dir.path, /*snapshot_every=*/1);
      durable->train(t);
      if (durable->untrain(u).overlay_spam != 0) ::_exit(3);
      t.as_spam = false;
      t.request_id = 0;
      for (const std::string& m :
           make_messages(kCompactChainAfterSegments, 59)) {
        t.message = m;
        durable->train(t);
      }
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "first run failed";

  auto recovered = durable_frontend(dir.path, 1);
  const RecoveryStats rs = recover(*recovered, dir.path, true);
  recovered->durability()->note_recovered_seqno(rs.max_seqno);
  EXPECT_EQ(rs.replayed_records, 0u);
  ASSERT_FALSE(known());
  EXPECT_EQ(recovered->untrain(u).overlay_spam, 0u);
  EXPECT_EQ(recovered->stats().deduped_mutations, 1u);
  // A new Untrain of the same message is not a retry: it is rejected.
  u.request_id = 889;
  EXPECT_THROW(recovered->untrain(u), InvalidArgument);
  EXPECT_FALSE(known());
}

// An Untrain of a message that was never trained is accepted when its
// tokens are all present (here: an empty message), and leaves a token
// count above its class total. The snapshot holding that overlay must
// recover, bit-identically.
TEST(Recovery, OverlayWithCountAboveClassTotalRecovers) {
  TempDataDir dir("above");
  const auto msgs = make_messages(1, 43);
  auto reference = memory_frontend();
  const auto feed = [&msgs](ServeFrontend& frontend) {
    TrainRequest t;
    t.user_id = 3;
    t.as_spam = true;
    t.copies = 2;
    t.message = msgs[0];
    frontend.train(t);
    UntrainRequest u;
    u.user_id = 3;
    u.as_spam = true;
    u.copies = 1;
    u.message = "";
    frontend.untrain(u);
  };
  {
    auto durable = durable_frontend(dir.path, /*snapshot_every=*/1);
    feed(*durable);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
    const OverlaySnapshot overlay = durable->overlay(3);
    ASSERT_NE(overlay, nullptr);
    ASSERT_EQ(overlay->spam_count(), 1u);
    ASSERT_GT(overlay->vocabulary_size(), 0u);
  }
  feed(*reference);

  auto recovered = memory_frontend();
  const RecoveryStats rs = recover(*recovered, dir.path);
  EXPECT_GT(rs.snapshot_users, 0u);
  std::ostringstream got, want;
  recovered->overlay(3)->save(got);
  reference->overlay(3)->save(want);
  EXPECT_EQ(got.str(), want.str());
  expect_bit_identical(*recovered, *reference, 80);
}

TEST(Recovery, ManifestRoundTripsAndRejectsCorruption) {
  TempDataDir dir("manifest");
  std::filesystem::create_directories(dir.path);
  EXPECT_FALSE(read_manifest(dir.path).has_value());

  Manifest m;
  m.users = 8;
  m.shards = 2;
  m.base_size = 200;
  m.spam_fraction = 0.3333333333333333;
  m.base_seed = 5;
  write_manifest(dir.path, m);
  const auto back = read_manifest(dir.path);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == m);  // includes exact double equality

  std::ofstream(dir.path + "/MANIFEST", std::ios::trunc)
      << "SBXMANIFEST 1\nusers not_a_number\n";
  EXPECT_THROW(read_manifest(dir.path), ParseError);
}

TEST(Recovery, CorruptSnapshotFailsLoudly) {
  TempDataDir dir("badsnap");
  {
    auto durable = durable_frontend(dir.path, 1);
    apply_workload(*durable, 3, 41);
    ASSERT_GT(durable->durability()->snapshots_taken(), 0u);
  }
  // Checkpoints now build an incremental chain; the first segment is the
  // chain root. Damage its header: unlike a torn WAL tail this is NOT an
  // expected crash artifact, so recovery must refuse rather than serve
  // silently wrong state.
  std::string snap;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::string candidate = incremental_snapshot_path_in(dir.path,
                                                               shard, 1);
    if (std::filesystem::exists(candidate)) {
      snap = candidate;
      break;
    }
  }
  ASSERT_FALSE(snap.empty());
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXX", 4);
  }
  auto frontend = memory_frontend();
  EXPECT_THROW(recover(*frontend, dir.path), ParseError);
}

}  // namespace
}  // namespace sbx::serve
