// ServeFrontend dispatch/stats/concurrency tests plus a live socket
// round-trip through Server/Client on a UNIX domain socket.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
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

// Classify traffic hammering one user while another user trains: the
// reader must never block or crash, and scores must always correspond to
// some published snapshot (here: just exercise it under TSan).
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
