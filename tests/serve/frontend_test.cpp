// ServeFrontend dispatch/stats/concurrency tests plus a live socket
// round-trip through Server/Client on a UNIX domain socket.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/client.h"
#include "serve/recovery.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "spambayes/scoring_math.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::serve {
namespace {

BaseModelConfig small_base() { return {/*base_size=*/200, 0.5, /*seed=*/5}; }

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

TEST(ServeFrontend, RejectsZeroTopologyAndUnknownUsers) {
  EXPECT_THROW(ServeFrontend(build_base_filter(small_base()), {0, 8}),
               InvalidArgument);
  EXPECT_THROW(ServeFrontend(build_base_filter(small_base()), {2, 0}),
               InvalidArgument);

  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  ClassifyBatchRequest req;
  req.user_id = 8;  // one past the end
  req.messages = make_messages(1, 1);
  EXPECT_THROW(frontend.classify_batch(req), InvalidArgument);
  const Response r = frontend.dispatch(Request(req));
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(r));
  EXPECT_NE(std::get<ErrorResponse>(r).message.find("unknown user"),
            std::string::npos);
}

TEST(ServeFrontend, RoutingCoversAllShardsWithDenseLocalSlots) {
  ServeFrontend frontend(build_base_filter(small_base()), {4, 64});
  std::vector<int> per_shard(4, 0);
  for (std::uint64_t uid = 0; uid < 64; ++uid) {
    const auto at = frontend.route(uid);
    ASSERT_LT(at.shard, 4u);
    ++per_shard[at.shard];
  }
  for (int n : per_shard) EXPECT_GT(n, 0);
}

TEST(ServeFrontend, StatsTrackRequestsAndOverlays) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  const auto msgs = make_messages(4, 2);

  ClassifyBatchRequest c;
  c.user_id = 0;
  c.messages = msgs;
  frontend.classify_batch(c);

  TrainRequest t;
  t.user_id = 3;
  t.message = msgs[0];
  frontend.train(t);

  const StatsResponse s = frontend.stats();
  EXPECT_EQ(s.users, 8u);
  EXPECT_EQ(s.shards, 2u);
  EXPECT_EQ(s.classify_requests, 1u);
  EXPECT_EQ(s.classified_messages, 4u);
  EXPECT_EQ(s.train_requests, 1u);
  EXPECT_EQ(s.overlay_users, 1u);
  EXPECT_EQ(s.base_spam_count + s.base_ham_count, 200u);
}

TEST(ServeFrontend, ClassifyManyMatchesSequentialDispatchBitwise) {
  ServeFrontend frontend(build_base_filter(small_base()), {4, 32});
  ServeFrontend sequential(build_base_filter(small_base()), {4, 32});
  const auto msgs = make_messages(6, 3);

  std::vector<ClassifyBatchRequest> batch;
  for (std::uint64_t uid = 0; uid < 32; uid += 3) {
    ClassifyBatchRequest c;
    c.user_id = uid;
    c.messages = msgs;
    batch.push_back(c);
  }
  batch.push_back({/*user_id=*/999, {msgs[0]}});  // routed to ErrorResponse

  const std::vector<Response> parallel = frontend.classify_many(batch);
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
    const auto& got = std::get<ClassifyBatchResponse>(parallel[i]);
    const auto want = sequential.classify_batch(batch[i]);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t j = 0; j < got.results.size(); ++j) {
      EXPECT_EQ(got.results[j].score, want.results[j].score);
    }
  }
  EXPECT_TRUE(std::holds_alternative<ErrorResponse>(parallel.back()));
}

/// Lower-case letters spelling `n`.
std::string letters(std::uint64_t n) {
  std::string s;
  do {
    s.push_back(static_cast<char>('a' + n % 26));
    n /= 26;
  } while (n > 0);
  return s;
}

/// A rendered message with `words` appended words no vocabulary
/// holds ("zzzq" + tag + a counter in letters; 3-12 characters, so each is
/// one token).
std::string with_novel_words(const std::string& raw, const std::string& tag,
                             std::uint64_t first, int words) {
  email::Message msg = email::parse_message(raw);
  std::string body = msg.body() + "\n";
  for (int w = 0; w < words; ++w) {
    body += "zzzq" + tag + letters(first + static_cast<std::uint64_t>(w)) +
            (w + 1 == words ? "\n" : " ");
  }
  msg.set_body(std::move(body));
  return email::render_message(msg);
}

std::vector<std::string> spam_messages(int n, std::uint64_t seed) {
  corpus::TrecLikeGenerator generator;
  util::Rng rng(seed);
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(email::render_message(generator.generate_spam(rng)));
  }
  return out;
}

/// A short message from generator mail: its Subject and the first dozen
/// body words, so scores stay clear of 0 and 1.
std::vector<std::string> short_messages(int n, std::uint64_t seed) {
  std::vector<std::string> out;
  for (const std::string& raw : make_messages(n, seed)) {
    const email::Message full = email::parse_message(raw);
    std::istringstream words(full.body());
    std::string body;
    std::string word;
    for (int w = 0; w < 12 && words >> word; ++w) body += word + " ";
    email::Message msg;
    msg.add_header("Subject", full.header("Subject").value_or(""));
    msg.set_body(body + "\n");
    out.push_back(email::render_message(msg));
  }
  return out;
}

std::vector<double> scores(const ClassifyBatchResponse& response) {
  std::vector<double> out;
  for (const ClassifyResult& r : response.results) out.push_back(r.score);
  return out;
}

// Served classify only looks tokens up: a batch full of never-seen words
// leaves the interner as it was, and base and overlay users still score
// bit-identically to the interning paths (Filter::classify_ids over
// message_token_ids, and Classifier::score_ids over base + overlay).
TEST(ServeFrontend, ClassifyNeverInternsAndMatchesInterningPathBitwise) {
  const spambayes::Filter reference = build_base_filter(small_base());
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  TrainRequest t;
  t.user_id = 3;
  for (const std::string& m : spam_messages(3, 31)) {
    t.message = with_novel_words(m, "ov", t.request_id * 100, 10);
    frontend.train(t);
    ++t.request_id;
  }
  const OverlaySnapshot overlay = frontend.overlay(3);
  ASSERT_NE(overlay, nullptr);

  ClassifyBatchRequest c;
  c.messages = make_messages(6, 21);
  for (const std::string& m : spam_messages(6, 22)) {
    c.messages.push_back(with_novel_words(m, "cl", c.messages.size() * 100,
                                          16));
  }
  c.messages.push_back(with_novel_words(spam_messages(1, 31)[0], "ov", 0, 10));

  spambayes::TokenInterner& interner = spambayes::global_interner();
  const std::size_t vocabulary_before = interner.size();
  c.user_id = 0;
  const ClassifyBatchResponse base_user = frontend.classify_batch(c);
  c.user_id = 3;
  const ClassifyBatchResponse overlay_user = frontend.classify_batch(c);
  EXPECT_EQ(interner.size(), vocabulary_before);

  const spambayes::Filter& served_base = frontend.base();
  for (std::size_t i = 0; i < c.messages.size(); ++i) {
    const email::Message parsed = email::parse_message(c.messages[i]);
    const spambayes::ScoreIdResult want_base =
        reference.classify_ids(reference.message_token_ids(parsed));
    EXPECT_EQ(base_user.results[i].score, want_base.score) << i;
    EXPECT_EQ(base_user.results[i].verdict,
              verdict_to_byte(want_base.verdict))
        << i;
    const spambayes::ScoreIdResult want_overlay =
        served_base.classifier().score_ids(
            served_base.database(), *overlay,
            served_base.message_token_ids(parsed));
    EXPECT_EQ(overlay_user.results[i].score, want_overlay.score) << i;
    EXPECT_EQ(overlay_user.results[i].verdict,
              verdict_to_byte(want_overlay.verdict))
        << i;
  }
  // The interning reference did meet the words classify dropped.
  EXPECT_GT(interner.size(), vocabulary_before);
}

// Untrain only looks tokens up. An untrain holding a word the interner has
// never seen must fail (the word has count 0 in every model), and it fails
// before anything is interned, logged or published.
TEST(ServeFrontend, RejectedUntrainNeverInterns) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  TrainRequest t;
  t.user_id = 3;
  t.message = spam_messages(1, 41)[0];
  frontend.train(t);
  const OverlaySnapshot trained = frontend.overlay(3);
  ASSERT_NE(trained, nullptr);

  spambayes::TokenInterner& interner = spambayes::global_interner();
  const std::size_t vocabulary_before = interner.size();
  UntrainRequest u;
  u.user_id = 3;
  u.request_id = 1;
  u.message = with_novel_words(t.message, "un", 0, 1);
  const Response r = frontend.dispatch(Request(u));
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(r));
  EXPECT_EQ(std::get<ErrorResponse>(r).code,
            static_cast<std::uint8_t>(ErrorCode::kGeneric));
  EXPECT_EQ(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(3), trained);
  EXPECT_EQ(trained->generation(), frontend.overlay(3)->generation());
  EXPECT_EQ(trained->bytes(), frontend.overlay(3)->bytes());

  for (std::uint64_t i = 0; i < 50; ++i) {
    u.request_id = 2 + i;
    u.message = with_novel_words(t.message, "un", 100 * (i + 1), 20);
    EXPECT_TRUE(std::holds_alternative<ErrorResponse>(
        frontend.dispatch(Request(u))));
  }
  EXPECT_EQ(interner.size(), vocabulary_before);

  // The exact untrain still applies.
  u.request_id = 100;
  u.message = t.message;
  frontend.untrain(u);
  EXPECT_EQ(frontend.overlay(3)->spam_count(), 0u);
}

// A Train interns its tokens, so the frontend screens it before
// tokenizing. A retried request id is answered from the dedup window, and a
// Train the class-total guard rejects fails; neither interns a token, even
// when each such request carries words no model has seen.
TEST(ServeFrontend, RetriedAndRejectedTrainsNeverIntern) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  TrainRequest t;
  t.user_id = 5;
  t.request_id = 7;
  t.message = spam_messages(1, 43)[0];
  const TrainResponse first = frontend.train(t);
  const OverlaySnapshot trained = frontend.overlay(5);
  ASSERT_NE(trained, nullptr);

  spambayes::TokenInterner& interner = spambayes::global_interner();
  const std::size_t vocabulary_before = interner.size();
  for (std::uint64_t i = 0; i < 100; ++i) {
    t.message = with_novel_words(spam_messages(1, 43)[0], "rt", 100 * i, 100);
    const TrainResponse retried = frontend.train(t);
    EXPECT_EQ(retried.overlay_generation, first.overlay_generation);
    EXPECT_EQ(retried.overlay_spam, first.overlay_spam);
    EXPECT_EQ(retried.overlay_ham, first.overlay_ham);
  }
  EXPECT_EQ(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(5), trained);
  EXPECT_EQ(frontend.stats().deduped_mutations, 100u);

  t.copies = std::numeric_limits<std::uint32_t>::max();
  for (std::uint64_t i = 0; i < 100; ++i) {
    t.request_id = 1000 + i;
    t.message = with_novel_words(spam_messages(1, 43)[0], "ct", 100 * i, 100);
    const Response r = frontend.dispatch(Request(t));
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(r));
  }
  EXPECT_EQ(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(5), trained);

  // A fresh Train with novel words still interns and applies.
  t.copies = 1;
  t.request_id = 2000;
  frontend.train(t);
  EXPECT_GT(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(5)->spam_count(), 2u);
}

// A Train can also be rejected by a token count. An Untrain of an empty
// message lowers the class total but no token count, so a word's count can
// sit near 2^32 - 1 while the class total is back near 0. A Train of that
// word plus novel words then passes the class-total guard, fails the count
// check and must intern none of its novel words.
TEST(ServeFrontend, TrainRejectedByATokenCountNeverInterns) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  const std::string message = spam_messages(1, 47)[0];
  const std::uint32_t near_full = std::numeric_limits<std::uint32_t>::max() -
                                  1000;  // base spam count is far below 1000
  TrainRequest t;
  t.user_id = 6;
  t.request_id = 1;
  t.copies = near_full;
  t.message = message;
  frontend.train(t);
  UntrainRequest u;
  u.user_id = 6;
  u.request_id = 2;
  u.copies = near_full;
  u.message = "";
  frontend.untrain(u);
  const OverlaySnapshot drained = frontend.overlay(6);
  ASSERT_NE(drained, nullptr);
  ASSERT_EQ(drained->spam_count(), 0u);

  spambayes::TokenInterner& interner = spambayes::global_interner();
  const std::size_t vocabulary_before = interner.size();
  t.copies = 2000;
  for (std::uint64_t i = 0; i < 100; ++i) {
    t.request_id = 100 + i;
    t.message = with_novel_words(message, "wr", 100 * i, 100);
    const Response r = frontend.dispatch(Request(t));
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(r));
  }
  EXPECT_EQ(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(6), drained);

  // A Train that fits still interns its novel words and applies.
  t.copies = 1;
  t.request_id = 300;
  frontend.train(t);
  EXPECT_GT(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(6)->spam_count(), 1u);
}

// With unknown_word_prob = 0.8 a never-seen token scores 0.8 and is a
// discriminator, so dropping it would change scores. The frontend then
// interns, exactly like the interning paths, and stays bit-identical.
TEST(ServeFrontend, ClassifyInternsWhenUnseenTokensAreDiscriminators) {
  spambayes::FilterOptions opts;
  opts.classifier.unknown_word_prob = 0.8;
  ASSERT_TRUE(spambayes::detail::unseen_token_is_discriminator(
      opts.classifier));
  spambayes::Filter base(opts);
  {
    corpus::TrecLikeGenerator generator;
    util::Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      if (i % 2 == 0) {
        base.train_spam(generator.generate_spam(rng));
      } else {
        base.train_ham(generator.generate_ham(rng));
      }
    }
  }
  ServeFrontend frontend(base, {2, 8});
  TrainRequest t;
  t.user_id = 3;
  t.message = spam_messages(1, 41)[0];
  frontend.train(t);
  const OverlaySnapshot overlay = frontend.overlay(3);
  ASSERT_NE(overlay, nullptr);

  ClassifyBatchRequest c;
  for (const std::string& m : spam_messages(6, 42)) {
    c.messages.push_back(with_novel_words(m, "fb", c.messages.size() * 100,
                                          16));
  }
  std::vector<double> dropped;
  for (const std::string& raw : c.messages) {
    const spambayes::TokenIdSet seen = base.tokenizer().tokenize_id_set(
        email::parse_message(raw), spambayes::IdMode::kLookupOnly);
    dropped.push_back(base.classify_ids(seen).score);
  }

  spambayes::TokenInterner& interner = spambayes::global_interner();
  const std::size_t vocabulary_before = interner.size();
  c.user_id = 0;
  const ClassifyBatchResponse base_user = frontend.classify_batch(c);
  c.user_id = 3;
  const ClassifyBatchResponse overlay_user = frontend.classify_batch(c);
  EXPECT_GE(interner.size(), vocabulary_before + 6 * 16);
  EXPECT_TRUE(interner.find("zzzqfb" + letters(0)).has_value());

  std::size_t changed = 0;
  for (std::size_t i = 0; i < c.messages.size(); ++i) {
    const email::Message parsed = email::parse_message(c.messages[i]);
    const spambayes::TokenIdSet ids = base.message_token_ids(parsed);
    const spambayes::ScoreIdResult want_overlay =
        base.classifier().score_ids(base.database(), *overlay, ids);
    EXPECT_EQ(base_user.results[i].score, base.classify_ids(ids).score) << i;
    EXPECT_EQ(overlay_user.results[i].score, want_overlay.score) << i;
    if (base_user.results[i].score != dropped[i]) ++changed;
  }
  // Dropping the unseen words would have moved the scores.
  EXPECT_GT(changed, 0u);
}

// Classify traffic hammering one user while another user trains: the
// reader must never block or crash, and scores must always correspond to
// some published snapshot.
//
// The second half pins the snapshot-then-tokenize order. Each of many
// users is trained once on a message whose appended words no vocabulary
// holds, while two threads classify that same message for that user. Every
// score must be the pre-train or the post-train score, both computed
// beforehand: pre by classifying before the train (which interns nothing),
// post through a twin user trained on the same message with different,
// equally many novel words (every novel word then carries the same counts,
// so the twin scores bit-identically). A classify that looked the words
// up before a train interned them, then scored against the overlay that
// train published, would produce neither.
TEST(ServeFrontend, ConcurrentClassifyDuringTraining) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 4});
  const auto msgs = make_messages(3, 4);

  std::thread trainer([&] {
    for (int i = 0; i < 50; ++i) {
      TrainRequest t;
      t.user_id = 1;
      t.as_spam = i % 2 == 0;
      t.message = msgs[i % msgs.size()];
      frontend.train(t);
    }
  });
  std::thread classifier([&] {
    for (int i = 0; i < 50; ++i) {
      ClassifyBatchRequest c;
      c.user_id = 1;
      c.messages = msgs;
      const auto r = frontend.classify_batch(c);
      ASSERT_EQ(r.results.size(), msgs.size());
    }
  });
  trainer.join();
  classifier.join();
  EXPECT_EQ(frontend.stats().train_requests, 50u);

  constexpr std::uint64_t kUsers = 32;
  constexpr int kNovel = 12;
  constexpr std::size_t kCopies = 8;
  ServeFrontend ordered(build_base_filter(small_base()), {4, 2 * kUsers});
  const std::vector<std::string> known = short_messages(kUsers, 51);
  std::vector<std::string> real(kUsers);
  std::vector<double> pre(kUsers);
  std::vector<double> post(kUsers);
  spambayes::TokenInterner& interner = spambayes::global_interner();
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    real[u] = with_novel_words(known[u], "rl", u * kNovel, kNovel);
    TrainRequest twin;
    twin.user_id = kUsers + u;
    twin.message = with_novel_words(known[u], "tw", u * kNovel, kNovel);
    ordered.train(twin);
    ClassifyBatchRequest c;
    c.user_id = kUsers + u;
    c.messages = {twin.message};
    post[u] = ordered.classify_batch(c).results[0].score;
    c.user_id = u;
    c.messages = {real[u]};
    pre[u] = ordered.classify_batch(c).results[0].score;
    ASSERT_NE(pre[u], post[u]);
  }
  for (std::uint64_t n = 0; n < kUsers * kNovel; ++n) {
    ASSERT_FALSE(interner.find("zzzqrl" + letters(n)).has_value());
  }

  // The trainer trains user u once a classifier is already hammering it.
  std::vector<std::atomic<int>> started(kUsers);
  std::atomic<std::size_t> bad{0};
  std::thread feedback([&] {
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      while (started[u].load() == 0) std::this_thread::yield();
      TrainRequest t;
      t.user_id = u;
      t.message = real[u];
      ordered.train(t);
    }
  });
  const auto hammer = [&] {
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      ClassifyBatchRequest c;
      c.user_id = u;
      c.messages.assign(kCopies, real[u]);
      started[u].fetch_add(1);
      for (;;) {
        const std::vector<double> got = scores(ordered.classify_batch(c));
        // One batch reads one snapshot, so its copies agree.
        const bool as_pre = got == std::vector<double>(kCopies, pre[u]);
        const bool as_post = got == std::vector<double>(kCopies, post[u]);
        if (!as_pre && !as_post) bad.fetch_add(1);
        if (!as_pre) break;
      }
    }
  };
  std::thread reader_a(hammer);
  std::thread reader_b(hammer);
  feedback.join();
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(bad.load(), 0u);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    ClassifyBatchRequest c;
    c.user_id = u;
    c.messages = {real[u]};
    EXPECT_EQ(ordered.classify_batch(c).results[0].score, post[u]) << u;
  }
}

// Train.copies is an unchecked u32 from the client, and classify sums base
// and overlay class totals in uint32. Two frames with copies = 0xFFFFFFFF
// would wrap them; both are rejected before anything reaches the WAL, and
// the user's model is left exactly as it was.
TEST(ServeFrontend, RejectsTrainCopiesThatWouldWrapClassTotals) {
  const std::string data_dir =
      testing::TempDir() + "sbx_frontend_wrap_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  std::filesystem::remove_all(data_dir);
  {
    DurabilityConfig dc;
    dc.data_dir = data_dir;
    dc.fsync = FsyncMode::kNone;
    ServeFrontend frontend(build_base_filter(small_base()), {2, 8},
                           std::make_unique<Durability>(dc, 2));
    const auto msgs = make_messages(4, 7);
    ClassifyBatchRequest c;
    c.user_id = 3;
    c.messages = msgs;
    const ClassifyBatchResponse before = frontend.classify_batch(c);

    TrainRequest t;
    t.user_id = 3;
    t.as_spam = true;
    t.copies = std::numeric_limits<std::uint32_t>::max();
    t.message = msgs[1];
    const std::vector<std::uint8_t> frame = encode_frame(Request(t));
    for (int i = 0; i < 2; ++i) {
      const Response r = frontend.dispatch(
          decode_request(std::span<const std::uint8_t>(frame).subspan(4)));
      ASSERT_TRUE(std::holds_alternative<ErrorResponse>(r));
      EXPECT_NE(std::get<ErrorResponse>(r).message.find("2^32 - 1"),
                std::string::npos);
    }
    const StatsResponse s = frontend.stats();
    EXPECT_EQ(s.errors, 2u);
    EXPECT_EQ(s.overlay_users, 0u);
    EXPECT_EQ(s.wal_records, 0u);
    EXPECT_EQ(frontend.overlay(3), nullptr);
    const ClassifyBatchResponse after = frontend.classify_batch(c);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(after.results[i].score, before.results[i].score);
    }

    // The largest train that fits is accepted; one more copy is not, and
    // leaves the published overlay in place.
    t.copies = std::numeric_limits<std::uint32_t>::max() - s.base_spam_count;
    EXPECT_EQ(frontend.train(t).overlay_spam, t.copies);
    const OverlaySnapshot full = frontend.overlay(3);
    t.copies = 1;
    EXPECT_THROW(frontend.train(t), InvalidArgument);
    EXPECT_EQ(frontend.overlay(3), full);
    EXPECT_EQ(frontend.stats().wal_records, 1u);
  }
  std::filesystem::remove_all(data_dir);
}

TEST(ServeServer, SocketRoundTripMatchesInProcessBitwise) {
  ServeFrontend frontend(build_base_filter(small_base()), {2, 8});
  ServeFrontend mirror(build_base_filter(small_base()), {2, 8});

  const std::string path =
      testing::TempDir() + "sbx_serve_test_" +
      std::to_string(static_cast<unsigned>(::getpid())) + ".sock";
  Server server(frontend, "unix:" + path);
  std::thread serving([&] { server.run(); });

  {
    Client client("unix:" + path);
    const auto msgs = make_messages(4, 6);

    TrainRequest t;
    t.user_id = 2;
    t.message = msgs[0];
    const auto train_remote = client.call(Request(t));
    const auto train_local = mirror.dispatch(Request(t));
    EXPECT_EQ(std::get<TrainResponse>(train_remote).overlay_spam,
              std::get<TrainResponse>(train_local).overlay_spam);

    ClassifyBatchRequest c;
    c.user_id = 2;
    c.messages = msgs;
    const auto remote =
        std::get<ClassifyBatchResponse>(client.call(Request(c)));
    const auto local =
        std::get<ClassifyBatchResponse>(mirror.dispatch(Request(c)));
    ASSERT_EQ(remote.results.size(), local.results.size());
    for (std::size_t i = 0; i < remote.results.size(); ++i) {
      EXPECT_EQ(remote.results[i].score, local.results[i].score);
      EXPECT_EQ(remote.results[i].verdict, local.results[i].verdict);
    }

    // Request-level failure leaves the connection usable.
    UntrainRequest bad;
    bad.user_id = 3;
    bad.message = msgs[0];
    EXPECT_TRUE(std::holds_alternative<ErrorResponse>(
        client.call(Request(bad))));
    EXPECT_TRUE(std::holds_alternative<StatsResponse>(
        client.call(Request(StatsRequest{}))));

    EXPECT_TRUE(std::holds_alternative<ShutdownResponse>(
        client.call(Request(ShutdownRequest{}))));
  }
  serving.join();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sbx::serve
