#include "streams.h"

#include <sstream>
#include <utility>

#include "email/rfc2822.h"
#include "serve/protocol.h"
#include "util/random.h"

namespace sbxbench {
namespace {

using sbx::serve::ClassifyBatchRequest;
using sbx::serve::Request;
using sbx::serve::TrainRequest;
using sbx::serve::UntrainRequest;

/// A spam carrying `words` random lowercase words no vocabulary holds —
/// the dictionary attack's random-word variant aimed at the interner.
std::string hash_buster(const sbx::corpus::TrecLikeGenerator& generator,
                        std::size_t words, sbx::util::Rng& rng) {
  sbx::email::Message msg = generator.generate_spam(rng);
  std::string body = msg.body();
  body += "\n";
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t len = 7 + rng.index(5);
    for (std::size_t i = 0; i < len; ++i) {
      body.push_back(static_cast<char>('a' + rng.index(26)));
    }
    body.push_back(w + 1 == words ? '\n' : ' ');
  }
  msg.set_body(std::move(body));
  return sbx::email::render_message(msg);
}

std::string ordinary(const sbx::corpus::TrecLikeGenerator& generator,
                     bool spam, sbx::util::Rng& rng) {
  return sbx::email::render_message(spam ? generator.generate_spam(rng)
                                         : generator.generate_ham(rng));
}

}  // namespace

ServingConfig inbox_classify_config(std::uint64_t seed) {
  ServingConfig c;
  c.name = "inbox_classify";
  c.connections = 2;
  c.requests_per_connection_second = 700;
  c.hash_buster_every = 20;
  c.base.seed = seed;
  return c;
}

ServingConfig feedback_durable_config(std::uint64_t seed) {
  ServingConfig c;
  c.name = "feedback_durable";
  c.connections = 4;
  c.requests_per_connection_second = 350;
  c.mutation_share = 0.5;
  c.durable = true;
  c.fsync = "batch";
  c.snapshot_every = 256;
  c.base.seed = seed;
  return c;
}

std::vector<StreamOp> generate_stream(
    const sbx::corpus::TrecLikeGenerator& generator,
    const ServingConfig& config, std::uint64_t seed, std::size_t conn,
    std::uint64_t salt, std::size_t requests) {
  sbx::util::Rng rng =
      sbx::util::Rng(seed).fork(salt * 1'000'003ull + conn + 1);
  std::vector<std::uint64_t> owned;
  for (std::uint64_t u = conn; u < config.users; u += config.connections) {
    owned.push_back(u);
  }
  // Trains not yet reversed, per owned user: (message, as_spam).
  std::vector<std::vector<std::pair<std::string, bool>>> pending(
      owned.size());
  std::uint64_t id_state = seed ^ (salt << 40) ^ ((conn + 1) << 32);
  std::size_t classified = 0;
  std::size_t mutations = 0;

  std::vector<StreamOp> out;
  out.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    StreamOp op;
    Request request;
    if (config.mutation_share > 0 && rng.bernoulli(config.mutation_share)) {
      ++mutations;
      const std::uint64_t request_id = sbx::util::splitmix64(id_state) | 1;
      std::size_t slot = rng.index(owned.size());
      const bool untrain =
          config.untrain_every > 0 && mutations % config.untrain_every == 0;
      if (untrain) {
        // Reverse one earlier train of a user that has one.
        for (std::size_t k = 0; k < owned.size() && pending[slot].empty();
             ++k) {
          slot = (slot + 1) % owned.size();
        }
      }
      if (untrain && !pending[slot].empty()) {
        auto& list = pending[slot];
        const std::size_t pick = rng.index(list.size());
        UntrainRequest u;
        u.user_id = owned[slot];
        u.message = std::move(list[pick].first);
        u.as_spam = list[pick].second;
        u.request_id = request_id;
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(pick));
        op.kind = OpKind::kUntrain;
        op.user = u.user_id;
        request = std::move(u);
      } else {
        TrainRequest t;
        t.user_id = owned[slot];
        t.as_spam = rng.bernoulli(0.5);
        t.message = ordinary(generator, t.as_spam, rng);
        t.request_id = request_id;
        pending[slot].emplace_back(t.message, t.as_spam);
        op.kind = OpKind::kTrain;
        op.user = t.user_id;
        request = std::move(t);
      }
      op.messages = 1;
    } else {
      ClassifyBatchRequest c;
      c.user_id = owned[rng.index(owned.size())];
      c.messages.reserve(config.batch);
      for (std::size_t b = 0; b < config.batch; ++b) {
        ++classified;
        if (config.hash_buster_every > 0 &&
            classified % config.hash_buster_every == 0) {
          c.messages.push_back(
              hash_buster(generator, config.hash_buster_words, rng));
        } else {
          c.messages.push_back(ordinary(generator, rng.bernoulli(0.5), rng));
        }
      }
      op.kind = OpKind::kClassify;
      op.user = c.user_id;
      op.messages = static_cast<std::uint32_t>(c.messages.size());
      request = std::move(c);
    }
    op.frame = sbx::serve::encode_frame(request);
    out.push_back(std::move(op));
  }
  return out;
}

std::vector<std::string> probe_messages(
    const sbx::corpus::TrecLikeGenerator& generator, std::uint64_t seed,
    std::size_t count) {
  sbx::util::Rng rng = sbx::util::Rng(seed).fork(0x9b0be);
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ordinary(generator, i % 2 == 1, rng));
  }
  return out;
}

std::string config_json(const ServingConfig& c) {
  std::ostringstream out;
  out << "{\"workload\":\"" << c.name << "\",\"loop\":\"closed\""
      << ",\"connections\":" << c.connections << ",\"users\":" << c.users
      << ",\"shards\":" << c.shards << ",\"batch\":" << c.batch
      << ",\"requests_per_connection_second\":"
      << c.requests_per_connection_second
      << ",\"mutation_share\":" << c.mutation_share
      << ",\"untrain_every\":" << c.untrain_every
      << ",\"hash_buster_every\":" << c.hash_buster_every
      << ",\"hash_buster_words\":" << c.hash_buster_words
      << ",\"durable\":" << (c.durable ? "true" : "false")
      << ",\"fsync\":\"" << c.fsync << "\""
      << ",\"snapshot_every\":" << c.snapshot_every
      << ",\"base_size\":" << c.base.base_size
      << ",\"base_spam_fraction\":" << c.base.spam_fraction
      << ",\"base_seed\":" << c.base.seed << "}";
  return out.str();
}

}  // namespace sbxbench
