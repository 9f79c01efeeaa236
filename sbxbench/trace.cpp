// The traced run: replays the serving streams in-process through each
// layer's public functions, in the order ServeFrontend calls them, with a
// span around every call; checks the replayed answers against
// ServeFrontend::dispatch bit for bit; adds the figures only a live daemon
// has (live_probe) and times paper_repro's layers.
#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "corpus/dataset.h"
#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "eval/registry.h"
#include "repro.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/recovery.h"
#include "serve/shard.h"
#include "serve/wal.h"
#include "serving.h"
#include "spambayes/interner.h"
#include "spambayes/score_engine.h"
#include "spambayes/tokenizer.h"
#include "util/sharding.h"

namespace sbxbench {
namespace {

namespace fs = std::filesystem;
using sbx::serve::ClassifyBatchRequest;
using sbx::serve::ClassifyBatchResponse;
using sbx::serve::Request;
using sbx::serve::Response;
using sbx::serve::TrainRequest;
using sbx::serve::TrainResponse;
using sbx::serve::UntrainRequest;
using sbx::serve::UntrainResponse;

/// Requests per connection replayed in-process.
constexpr std::size_t kReplayRequests = 150;

/// The layers ServeFrontend::dispatch itself calls (decode and encode are
/// the socket server's).
constexpr const char* kFrontendStages[] = {
    "email.parse",          "spambayes.tokenize",
    "spambayes.engine.score", "spambayes.overlay.score",
    "serve.shard.mutation", "serve.durability.commit_wait"};

/// The shard array and routing ServeFrontend builds, owned here so each
/// layer can be called directly.
struct ReplayState {
  std::unique_ptr<sbx::serve::Durability> durability;
  std::vector<std::unique_ptr<sbx::serve::ModelShard>> shards;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> route;  // shard, local

  ReplayState(const ServingConfig& config, const std::string& data_dir) {
    if (config.durable) {
      fs::remove_all(data_dir);
      sbx::serve::DurabilityConfig dc;
      dc.data_dir = data_dir;
      dc.fsync = sbx::serve::fsync_mode_from_string(config.fsync);
      dc.snapshot_every = config.snapshot_every;
      durability =
          std::make_unique<sbx::serve::Durability>(dc, config.shards);
    }
    std::vector<std::uint32_t> next_local(config.shards, 0);
    for (std::uint64_t uid = 0; uid < config.users; ++uid) {
      const std::size_t shard = sbx::util::shard_of(uid, config.shards);
      route.emplace_back(static_cast<std::uint32_t>(shard),
                         next_local[shard]++);
    }
    for (std::size_t s = 0; s < config.shards; ++s) {
      shards.push_back(std::make_unique<sbx::serve::ModelShard>(
          std::max<std::size_t>(1, next_local[s])));
      shards.back()->configure_dedup(sbx::serve::FrontendConfig{}.dedup_window);
      if (durability) shards.back()->attach_durability(durability.get(), s);
    }
    for (std::uint64_t uid = 0; uid < config.users; ++uid) {
      shards[route[uid].first]->set_uid_of_local(route[uid].second, uid);
    }
  }

  std::uint64_t overlay_vocab_entries() const {
    std::uint64_t total = 0;
    for (const auto& [shard, local] : route) {
      if (const auto overlay = shards[shard]->overlay(local)) {
        total += overlay->vocabulary_size();
      }
    }
    return total;
  }
};

struct ReplayTotals {
  std::int64_t request_ns = 0;  // sum of per-request wall time
  std::uint64_t engine_messages = 0;
  std::uint64_t requests = 0;
};

sbx::spambayes::TokenIdSet parse_and_tokenize(
    const sbx::spambayes::Filter& base, const std::string& raw, Tracer* tr,
    std::uint64_t rid) {
  sbx::email::Message message;
  {
    Tracer::Scope span(tr, "email.parse", rid);
    message = sbx::email::parse_message(raw);
  }
  Tracer::Scope span(tr, "spambayes.tokenize", rid);
  return base.message_token_ids(message);
}

/// One request through the layers, as ServeFrontend::dispatch runs it,
/// framed by the socket server's decode and encode.
Response replay_request(const sbx::spambayes::Filter& base,
                        const StreamOp& op, ReplayState& state, Tracer* tr,
                        std::uint64_t rid, ReplayTotals& totals) {
  Tracer::Scope root(tr, "serve.request", rid);
  Request request;
  {
    Tracer::Scope span(tr, "serve.protocol.decode", rid);
    request = sbx::serve::decode_request(
        std::span<const std::uint8_t>(op.frame).subspan(4));
  }
  Response response;
  if (const auto* c = std::get_if<ClassifyBatchRequest>(&request)) {
    const auto [shard_index, local] = state.route.at(c->user_id);
    sbx::serve::ModelShard& shard = *state.shards[shard_index];
    std::vector<sbx::spambayes::TokenIdSet> ids;
    ids.reserve(c->messages.size());
    for (const std::string& raw : c->messages) {
      ids.push_back(parse_and_tokenize(base, raw, tr, rid));
    }
    const sbx::serve::OverlaySnapshot overlay = shard.overlay(local);
    ClassifyBatchResponse out;
    out.results.resize(ids.size());
    if (!overlay) {
      Tracer::Scope span(tr, "spambayes.engine.score", rid);
      sbx::spambayes::ScoreEngine::for_current_thread(
          base.options().classifier)
          .score_ids_batch(
              base.database(),
              std::span<const sbx::spambayes::TokenIdList>(ids),
              [&](std::size_t i, const sbx::spambayes::BatchScore& s) {
                out.results[i] = {s.score,
                                  sbx::serve::verdict_to_byte(s.verdict)};
              });
      totals.engine_messages += ids.size();
    } else {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        Tracer::Scope span(tr, "spambayes.overlay.score", rid);
        const sbx::spambayes::ScoreIdResult r =
            base.classifier().score_ids(base.database(), *overlay, ids[i]);
        out.results[i] = {r.score, sbx::serve::verdict_to_byte(r.verdict)};
      }
    }
    shard.record_classified(local, ids.size());
    response = std::move(out);
  } else {
    // Train and Untrain share one body; only the op differs.
    sbx::serve::MutationRequest m;
    const auto fill = [&m](std::uint8_t wal_op, const auto& r) {
      m.op = wal_op;
      m.user_id = r.user_id;
      m.request_id = r.request_id;
      m.as_spam = r.as_spam;
      m.copies = r.copies;
      m.message = &r.message;
    };
    const bool train = std::holds_alternative<TrainRequest>(request);
    if (train) {
      fill(sbx::serve::kWalOpTrain, std::get<TrainRequest>(request));
    } else {
      fill(sbx::serve::kWalOpUntrain, std::get<UntrainRequest>(request));
    }
    const auto [shard_index, local] = state.route.at(m.user_id);
    const sbx::spambayes::TokenIdSet ids =
        parse_and_tokenize(base, *m.message, tr, rid);
    sbx::serve::MutationResult result;
    {
      Tracer::Scope span(tr, "serve.shard.mutation", rid);
      result = state.shards[shard_index]->apply_mutation(local, m, ids);
    }
    if (state.durability) {
      Tracer::Scope span(tr, "serve.durability.commit_wait", rid);
      state.durability->await_durable(result.commit_ticket);
    }
    if (train) {
      response = TrainResponse{result.generation, result.spam, result.ham};
    } else {
      response = UntrainResponse{result.generation, result.spam, result.ham};
    }
  }
  {
    Tracer::Scope span(tr, "serve.protocol.encode", rid);
    const std::vector<std::uint8_t> frame = sbx::serve::encode_frame(response);
    if (frame.size() < 5) throw sbx::Error("sbxbench: empty response frame");
  }
  return response;
}

std::vector<Response> replay(const sbx::spambayes::Filter& base,
                             const std::vector<const StreamOp*>& ops,
                             ReplayState& state, Tracer* tr,
                             ReplayTotals& totals) {
  std::vector<Response> out;
  out.reserve(ops.size());
  for (std::size_t r = 0; r < ops.size(); ++r) {
    const auto start = Clock::now();
    out.push_back(replay_request(base, *ops[r], state, tr, r + 1, totals));
    totals.request_ns += (Clock::now() - start).count();
    ++totals.requests;
  }
  return out;
}

/// What the replays of one stream measured.
struct StreamTrace {
  Tracer tracer;
  ReplayTotals untraced;
  ReplayTotals traced;
  std::int64_t frontend_ns = 0;
  std::uint64_t mismatches = 0;
  std::size_t tokens_added = 0;
  std::size_t arena_bytes_added = 0;
  std::uint64_t overlay_vocab_entries = 0;
  std::vector<const StreamOp*> ops;

  /// Mean self time in microseconds of the spans named `name`, per `per`
  /// units (0 = per span).
  double self_us(const char* name, std::uint64_t per = 0) const {
    const auto by_name = tracer.self_by_name();
    const auto it = by_name.find(name);
    if (it == by_name.end()) return 0;
    const double units =
        static_cast<double>(per != 0 ? per : it->second.second);
    return static_cast<double>(it->second.first) / 1e3 / std::max(units, 1.0);
  }

  std::int64_t stage_self_ns() const {
    const auto by_name = tracer.self_by_name();
    std::int64_t total = 0;
    for (const char* stage : kFrontendStages) {
      const auto it = by_name.find(stage);
      if (it != by_name.end()) total += it->second.first;
    }
    return total;
  }
};

/// A warm-up, two untraced/traced pairs and a ServeFrontend::dispatch pass
/// over one stream, each on fresh state so mutations replay identically.
void trace_stream(const sbx::spambayes::Filter& base,
                  const ServingConfig& config,
                  const std::vector<std::vector<StreamOp>>& streams,
                  StreamTrace& out) {
  for (std::size_t r = 0; r < kReplayRequests; ++r) {
    for (const auto& stream : streams) {
      if (r < stream.size()) out.ops.push_back(&stream[r]);
    }
  }
  sbx::spambayes::TokenInterner& interner = sbx::spambayes::global_interner();
  const std::size_t tokens_before = interner.size();
  const std::size_t arena_before = interner.arena_bytes();
  {
    ReplayState warm(config, "trace-" + config.name + "-warm");
    ReplayTotals ignored;
    replay(base, out.ops, warm, nullptr, ignored);
  }
  out.tokens_added = interner.size() - tokens_before;
  out.arena_bytes_added = interner.arena_bytes() - arena_before;
  // Untraced and traced replays alternate twice; the overhead compares the
  // faster of each pair, and the spans are the first traced replay's.
  std::vector<Response> traced;
  std::uint64_t vocab_entries = 0;
  for (int round = 0; round < 2; ++round) {
    const std::string tag =
        "trace-" + config.name + "-" + std::to_string(round);
    ReplayTotals plain_totals;
    {
      ReplayState plain(config, tag + "-plain");
      replay(base, out.ops, plain, nullptr, plain_totals);
    }
    ReplayTotals traced_totals;
    Tracer discard;
    ReplayState traced_state(config, tag + "-traced");
    std::vector<Response> responses =
        replay(base, out.ops, traced_state, round == 0 ? &out.tracer : &discard,
               traced_totals);
    if (round == 0) {
      out.untraced = plain_totals;
      out.traced = traced_totals;
      traced = std::move(responses);
      vocab_entries = traced_state.overlay_vocab_entries();
    } else {
      out.untraced.request_ns =
          std::min(out.untraced.request_ns, plain_totals.request_ns);
      out.traced.request_ns =
          std::min(out.traced.request_ns, traced_totals.request_ns);
    }
  }
  out.overlay_vocab_entries = vocab_entries;


  std::unique_ptr<sbx::serve::Durability> durability;
  if (config.durable) {
    const std::string dir = "trace-" + config.name + "-frontend";
    fs::remove_all(dir);
    sbx::serve::DurabilityConfig dc;
    dc.data_dir = dir;
    dc.fsync = sbx::serve::fsync_mode_from_string(config.fsync);
    dc.snapshot_every = config.snapshot_every;
    durability = std::make_unique<sbx::serve::Durability>(dc, config.shards);
  }
  sbx::serve::FrontendConfig fc;
  fc.shard_count = config.shards;
  fc.user_count = config.users;
  sbx::serve::ServeFrontend frontend(base, fc, std::move(durability));
  for (std::size_t r = 0; r < out.ops.size(); ++r) {
    const Request request = sbx::serve::decode_request(
        std::span<const std::uint8_t>(out.ops[r]->frame).subspan(4));
    const auto start = Clock::now();
    const Response response = frontend.dispatch(request);
    out.frontend_ns += (Clock::now() - start).count();
    if (!same_response(response, traced[r])) ++out.mismatches;
  }
}

/// serve.wal.append_us: WalWriter::append over the stream's mutations.
double wal_append_us(const std::vector<const StreamOp*>& ops,
                     const std::string& fsync) {
  const std::string path = "trace-wal.log";
  fs::remove(path);
  sbx::serve::WalWriter writer(path, sbx::serve::fsync_mode_from_string(fsync));
  std::int64_t ns = 0;
  std::uint64_t records = 0;
  for (const StreamOp* op : ops) {
    if (op->kind == OpKind::kClassify) continue;
    const Request request = sbx::serve::decode_request(
        std::span<const std::uint8_t>(op->frame).subspan(4));
    sbx::serve::WalRecord record;
    const auto fill = [&record](std::uint8_t wal_op, const auto& r) {
      record.op = wal_op;
      record.user_id = r.user_id;
      record.request_id = r.request_id;
      record.as_spam = r.as_spam;
      record.copies = r.copies;
      record.message = r.message;
    };
    if (const auto* t = std::get_if<TrainRequest>(&request)) {
      fill(sbx::serve::kWalOpTrain, *t);
    } else {
      fill(sbx::serve::kWalOpUntrain, std::get<UntrainRequest>(request));
    }
    record.seqno = ++records;
    const auto start = Clock::now();
    writer.append(record);
    ns += (Clock::now() - start).count();
  }
  writer.sync();
  return static_cast<double>(ns) / 1e3 /
         static_cast<double>(std::max<std::uint64_t>(1, records));
}

}  // namespace

RunResult run_trace(const RunOptions& options) {
  const unsigned nproc = std::max(1u, options.nproc);
  ServingConfig inbox = inbox_classify_config(options.seed);
  ServingConfig feedback = feedback_durable_config(options.seed);
  inbox.connections = std::min<std::size_t>(inbox.connections, nproc);
  feedback.connections = std::min<std::size_t>(feedback.connections, nproc);
  std::printf("config: {\"trace\":%s,\"feedback\":%s,\"replay_requests_per_"
              "connection\":%zu}\n",
              config_json(inbox).c_str(), config_json(feedback).c_str(),
              kReplayRequests);

  const sbx::corpus::TrecLikeGenerator generator;
  const sbx::spambayes::Filter base = sbx::serve::build_base_filter(inbox.base);
  // The measured streams of the end-to-end run (salt 2), replayed in part.
  const auto inbox_streams = generate_streams(generator, inbox, options.seed,
                                              2, kReplayRequests, nproc);
  const auto feedback_streams = generate_streams(
      generator, feedback, options.seed, 2, kReplayRequests, nproc);

  StreamTrace in;
  StreamTrace fb;
  trace_stream(base, inbox, inbox_streams, in);
  trace_stream(base, feedback, feedback_streams, fb);
  {
    std::ofstream spans(options.spans_path);
    in.tracer.write_jsonl(spans);
    fb.tracer.write_jsonl(spans);
  }
  const double wal_us = wal_append_us(fb.ops, feedback.fsync);

  const double live_seconds = std::max(1.0, options.seconds * 0.15);
  const LiveProbe live_in = live_probe(inbox, options, "inbox", live_seconds);
  const LiveProbe live_fb =
      live_probe(feedback, options, "feedback", live_seconds);

  // paper_repro's layers.
  const std::size_t pool_size = 10000 * 10 / 9;  // the dictionary's pool
  sbx::util::Rng rng(options.seed);
  auto t0 = Clock::now();
  const sbx::corpus::Dataset dataset =
      generator.sample_mailbox(pool_size, 0.5, rng);
  const double sample_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  const sbx::corpus::TokenizedDataset tokenized =
      sbx::corpus::tokenize_dataset(dataset, sbx::spambayes::Tokenizer());
  const double tokenize_s = seconds_between(t0, Clock::now());
  if (tokenized.size() != pool_size) {
    throw sbx::Error("sbxbench: tokenize_dataset lost messages");
  }
  const ReproPass pass =
      run_repro_pass(sbx::eval::builtin_registry(), options.seed, nproc);
  const double busy_share = pass.cpu_us / 1e6 /
                            ((pass.dictionary_s + pass.roni_s) * nproc);

  const double frontend_ns =
      static_cast<double>(in.frontend_ns + fb.frontend_ns);
  const double coverage =
      static_cast<double>(in.stage_self_ns() + fb.stage_self_ns()) /
      frontend_ns;
  const double overhead =
      static_cast<double>(in.traced.request_ns + fb.traced.request_ns) /
          static_cast<double>(in.untraced.request_ns +
                              fb.untraced.request_ns) -
      1.0;
  const std::uint64_t mismatches = in.mismatches + fb.mismatches;
  const std::uint64_t live_ops = live_in.ops + live_fb.ops;
  const double client_cpu =
      (live_in.client_cpu_us + live_fb.client_cpu_us) /
      static_cast<double>(std::max<std::uint64_t>(1, live_ops));
  const double daemon_cpu =
      (live_in.daemon_cpu_us + live_fb.daemon_cpu_us) /
      static_cast<double>(std::max<std::uint64_t>(1, live_ops));
  const auto& st = live_fb.stats;

  std::printf("trace: replayed %llu + %llu requests; %llu differ from "
              "ServeFrontend::dispatch; spans in %s\n",
              static_cast<unsigned long long>(in.traced.requests),
              static_cast<unsigned long long>(fb.traced.requests),
              static_cast<unsigned long long>(mismatches),
              options.spans_path.c_str());
  std::printf("trace: stage self time covers %.1f%% of frontend time "
              "(inbox %.1f%%, feedback %.1f%%); tracing overhead %.1f%%\n",
              100 * coverage,
              100.0 * static_cast<double>(in.stage_self_ns()) /
                  static_cast<double>(in.frontend_ns),
              100.0 * static_cast<double>(fb.stage_self_ns()) /
                  static_cast<double>(fb.frontend_ns),
              100 * overhead);
  if (client_cpu > daemon_cpu) {
    std::printf("WARNING: in the live probes the load process used more CPU "
                "per op (%.1f us) than the daemon (%.1f us)\n",
                client_cpu, daemon_cpu);
  }

  RunResult result;
  result.attempted = in.traced.requests + fb.traced.requests + live_ops;
  result.failed = mismatches + live_in.failed + live_fb.failed;
  result.correct = result.failed == 0;
  result.add("email.parse_us", in.self_us("email.parse"), "us");
  result.add("spambayes.tokenize_us", in.self_us("spambayes.tokenize"), "us");
  result.add("spambayes.interner.tokens_added",
             static_cast<double>(in.tokens_added), "count");
  result.add("spambayes.interner.arena_bytes_added",
             static_cast<double>(in.arena_bytes_added), "bytes");
  result.add("spambayes.engine.score_us",
             in.self_us("spambayes.engine.score", in.traced.engine_messages),
             "us");
  result.add("spambayes.overlay.score_us",
             fb.self_us("spambayes.overlay.score"), "us");
  result.add("serve.protocol.decode_us", in.self_us("serve.protocol.decode"),
             "us");
  result.add("serve.protocol.encode_us", in.self_us("serve.protocol.encode"),
             "us");
  result.add("serve.transport.rtt_us", live_in.rtt_us, "us");
  result.add("serve.shard.mutation_us", fb.self_us("serve.shard.mutation"),
             "us");
  result.add("serve.wal.append_us", wal_us, "us");
  result.add("serve.durability.commit_wait_us",
             fb.self_us("serve.durability.commit_wait"), "us");
  result.add("serve.group_commit.records_per_window",
             static_cast<double>(st.wal_records) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, st.group_commit_windows)),
             "count");
  result.add("serve.snapshot.count", static_cast<double>(st.wal_snapshots),
             "count");
  result.add("serve.snapshot.bytes",
             static_cast<double>(st.incremental_snapshot_bytes), "bytes");
  result.add("serve.overlay.vocab_entries",
             static_cast<double>(fb.overlay_vocab_entries), "count");
  result.add("serve.overlay.rss_kb_per_user",
             live_fb.rss_growth_kb /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, st.overlay_users)),
             "kB");
  result.add("corpus.sample_s", sample_s, "s");
  result.add("corpus.tokenize_dataset_s", tokenize_s, "s");
  result.add("eval.dictionary_s", pass.dictionary_s, "s");
  result.add("eval.roni_s", pass.roni_s, "s");
  result.add("util.pool.busy_share", busy_share, "share");
  result.add("bench.client_cpu_us_per_op", client_cpu, "us");
  result.add("trace.coverage_share", coverage, "share");
  result.add("trace.overhead_share", overhead, "share");
  return result;
}

}  // namespace sbxbench
