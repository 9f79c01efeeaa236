#include "serve/frontend.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "email/rfc2822.h"
#include "serve/replication.h"
#include "spambayes/score_engine.h"
#include "util/error.h"
#include "util/sharding.h"

namespace sbx::serve {
namespace {

/// Per-shard work item for classify_many: index into the request (and
/// response) vector.
using ShardPlan = std::vector<std::vector<std::size_t>>;

}  // namespace

ServeFrontend::ServeFrontend(spambayes::Filter base, FrontendConfig config,
                             std::unique_ptr<Durability> durability)
    : base_(std::move(base)), durability_(std::move(durability)) {
  if (config.shard_count == 0) {
    throw InvalidArgument("ServeFrontend: shard_count must be greater than 0");
  }
  if (config.user_count == 0) {
    throw InvalidArgument("ServeFrontend: user_count must be greater than 0");
  }
  if (durability_ != nullptr &&
      durability_->shard_count() != config.shard_count) {
    throw InvalidArgument(
        "ServeFrontend: durability shard count does not match config");
  }
  // Route every user id up front: shard by splitmix64 hash, then assign
  // dense local slots per shard so each ModelShard only allocates the
  // users it actually owns.
  route_.resize(config.user_count);
  std::vector<std::uint32_t> next_local(config.shard_count, 0);
  for (std::uint64_t uid = 0; uid < config.user_count; ++uid) {
    const std::size_t shard = util::shard_of(uid, config.shard_count);
    route_[uid] = {static_cast<std::uint32_t>(shard), next_local[shard]++};
  }
  shards_.reserve(config.shard_count);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    // A hash-unlucky shard may own zero users; give it one slot so the
    // shard array stays dense and addressable.
    const std::size_t owned = next_local[s] > 0 ? next_local[s] : 1;
    shards_.push_back(std::make_unique<ModelShard>(
        owned, BaseTotals{base_.database().spam_count(),
                          base_.database().ham_count()}));
    shards_.back()->configure_dedup(config.dedup_window);
    if (durability_ != nullptr) {
      shards_.back()->attach_durability(durability_.get(), s);
    }
  }
  for (std::uint64_t uid = 0; uid < config.user_count; ++uid) {
    shards_[route_[uid].shard]->set_uid_of_local(route_[uid].local, uid);
  }
}

ServeFrontend::~ServeFrontend() = default;

ServeFrontend::RouteEntry ServeFrontend::route(std::uint64_t user_id) const {
  return route_checked(user_id);
}

OverlaySnapshot ServeFrontend::overlay(std::uint64_t user_id) const {
  const RouteEntry& at = route_checked(user_id);
  return shards_[at.shard]->overlay(at.local);
}

const ServeFrontend::RouteEntry& ServeFrontend::route_checked(
    std::uint64_t user_id) const {
  if (user_id >= route_.size()) {
    throw InvalidArgument("serve: unknown user " + std::to_string(user_id) +
                          " (serving " + std::to_string(route_.size()) +
                          " users)");
  }
  return route_[user_id];
}

ClassifyBatchResponse ServeFrontend::classify_batch(
    const ClassifyBatchRequest& request) {
  const RouteEntry at = route_checked(request.user_id);
  ModelShard& shard = *shards_[at.shard];

  // One snapshot for the whole batch: mutations landing mid-batch are
  // seen by the next request, never by a half-scored batch. It is taken
  // before tokenizing: every id in a published overlay was interned before
  // that overlay was published, so the lookup-only pass below finds all of
  // them. (Tokenizing first could pair a pre-train lookup, which drops the
  // train's novel tokens, with a post-train overlay.)
  const OverlaySnapshot overlay = shard.overlay(at.local);

  // Tokenize the whole batch; scoring then runs over pure id sets.
  std::vector<spambayes::TokenIdSet> ids;
  ids.reserve(request.messages.size());
  for (const std::string& raw : request.messages) {
    ids.push_back(base_.classify_token_ids(email::parse_message(raw)));
  }

  ClassifyBatchResponse response;
  response.results.resize(ids.size());
  spambayes::ScoreEngine& engine =
      spambayes::ScoreEngine::for_current_thread(base_.options().classifier);
  if (!overlay) {
    // Empty overlay: the base filter IS this user's model. Pump the
    // generation-cached zero-alloc batch path — bit-identical to the
    // batch experiments' classify path.
    engine.score_ids_batch(
        base_.database(), std::span<const spambayes::TokenIdList>(ids),
        [&](std::size_t i, const spambayes::BatchScore& s) {
          response.results[i] = {s.score, verdict_to_byte(s.verdict)};
        });
  } else {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const spambayes::ScoreIdResult r =
          engine.score_ids(base_.database(), *overlay, ids[i]);
      response.results[i] = {r.score, verdict_to_byte(r.verdict)};
    }
  }
  shard.record_classified(at.local, ids.size());
  classify_requests_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

MutationResult ServeFrontend::apply(std::uint8_t op, std::uint64_t user_id,
                                    std::uint64_t request_id, bool as_spam,
                                    std::uint32_t copies,
                                    const std::string& message) {
  if (copies == 0) {
    throw InvalidArgument("serve: mutation copies must be greater than 0");
  }
  const RouteEntry at = route_checked(user_id);
  // Both ops only look tokens up, so a retried or rejected mutation
  // interns nothing. An untrain holding a never-interned token (count 0
  // everywhere) is rejected by the shard after its dedup lookup, before
  // the WAL sees it; a train's never-interned spellings are interned by
  // the shard once the train is known to apply.
  const email::Message parsed = email::parse_message(message);
  std::vector<std::string> novel;
  const spambayes::TokenIdSet ids = base_.tokenizer().tokenize_id_set(
      parsed, spambayes::IdMode::kLookupOnly, nullptr, &novel);
  MutationRequest req;
  req.unknown_token = op != kWalOpTrain && !novel.empty();
  req.op = op;
  req.user_id = user_id;
  req.request_id = request_id;
  req.as_spam = as_spam;
  req.copies = copies;
  req.message = &message;
  const MutationResult result =
      shards_[at.shard]->apply_mutation(at.local, req, ids, novel);
  // Both waits run after the shard lock is released: group commit and
  // quorum acks gate THIS request's response, never another user's
  // mutation throughput.
  if (durability_ != nullptr) durability_->await_durable(result.commit_ticket);
  if (replicator_ != nullptr) replicator_->wait_acked(result.repl_ticket);
  return result;
}

TrainResponse ServeFrontend::train(const TrainRequest& request) {
  const MutationResult r =
      apply(kWalOpTrain, request.user_id, request.request_id, request.as_spam,
            request.copies, request.message);
  train_requests_.fetch_add(1, std::memory_order_relaxed);
  return {r.generation, r.spam, r.ham};
}

UntrainResponse ServeFrontend::untrain(const UntrainRequest& request) {
  const MutationResult r = apply(kWalOpUntrain, request.user_id,
                                 request.request_id, request.as_spam,
                                 request.copies, request.message);
  untrain_requests_.fetch_add(1, std::memory_order_relaxed);
  return {r.generation, r.spam, r.ham};
}

void ServeFrontend::set_standby(std::string redirect_hint) {
  redirect_hint_ = std::move(redirect_hint);
  role_.store(Role::kStandby, std::memory_order_release);
}

PromoteResponse ServeFrontend::promote() {
  std::uint64_t watermark = 0;
  for (const auto& shard : shards_) {
    watermark = std::max(watermark, shard->last_seqno());
  }
  if (durability_ != nullptr) {
    // Seqnos drawn as a primary must land strictly above everything
    // replicated in — otherwise the promoted node's first mutation would
    // collide with an applied record and be skipped on the next failover.
    durability_->note_recovered_seqno(watermark);
  }
  role_.store(Role::kPrimary, std::memory_order_release);
  return PromoteResponse{watermark};
}

ReplicateAckResponse ServeFrontend::replicate_batch(
    const ReplicateBatchRequest& request) {
  std::uint64_t max_ticket = 0;
  std::uint64_t max_seqno = 0;
  std::uint64_t applied = 0;
  for (const ReplicatedRecord& entry : request.records) {
    const RouteEntry at = route_checked(entry.record.user_id);
    if (at.shard != entry.shard) {
      // Primary and standby derive routing from the same manifest; a
      // disagreement means they are not replicas of one topology.
      throw InvalidArgument(
          "serve: replicated record routes user " +
          std::to_string(entry.record.user_id) + " to shard " +
          std::to_string(at.shard) + " here, shard " +
          std::to_string(entry.shard) + " on the primary (topology mismatch)");
    }
    const spambayes::TokenIdSet ids =
        base_.message_token_ids(email::parse_message(entry.record.message));
    const ReplicatedApplyResult r =
        shards_[at.shard]->apply_replicated(at.local, entry.record, ids);
    if (r.applied) {
      ++applied;
      max_ticket = std::max(max_ticket, r.commit_ticket);
    }
    max_seqno = std::max(max_seqno, entry.record.seqno);
  }
  // The ack promises durability: every applied record is fsync-covered
  // (per this node's own policy) before the primary hears the watermark.
  if (durability_ != nullptr) durability_->await_durable(max_ticket);
  standby_applied_records_.fetch_add(applied, std::memory_order_relaxed);
  ReplicateAckResponse ack;
  ack.acked_seqno = max_seqno;
  ack.applied_records =
      standby_applied_records_.load(std::memory_order_relaxed);
  return ack;
}

void ServeFrontend::attach_replicator(std::unique_ptr<Replicator> replicator) {
  replicator_ = std::move(replicator);
  for (const auto& shard : shards_) {
    shard->attach_replicator(replicator_.get());
  }
}

void ServeFrontend::sync_durability() {
  if (replicator_ != nullptr) {
    replicator_->flush(2'000);
    replicator_->stop();
  }
  if (durability_ != nullptr) durability_->sync_all();
}

void ServeFrontend::replay_install_user(std::uint64_t uid,
                                        OverlaySnapshot overlay,
                                        std::vector<DedupEntry> dedup) {
  const RouteEntry at = route_checked(uid);
  shards_[at.shard]->replay_install(at.local, std::move(overlay),
                                    std::move(dedup));
}

void ServeFrontend::replay_wal_record(const WalRecord& record) {
  const RouteEntry at = route_checked(record.user_id);
  const spambayes::TokenIdSet ids =
      base_.message_token_ids(email::parse_message(record.message));
  MutationRequest req;
  req.op = record.op;
  req.user_id = record.user_id;
  req.request_id = record.request_id;
  req.as_spam = record.as_spam;
  req.copies = record.copies;
  req.message = &record.message;
  req.seqno = record.seqno;
  shards_[at.shard]->replay_mutation(at.local, req, ids);
}

StatsResponse ServeFrontend::stats() const {
  StatsResponse out;
  out.users = route_.size();
  out.shards = shards_.size();
  for (const auto& shard : shards_) {
    const ShardStats s = shard->stats();
    out.overlay_users += s.overlay_users;
    out.classified_messages += s.classified_messages;
    out.deduped_mutations += s.deduped;
  }
  out.classify_requests = classify_requests_.load(std::memory_order_relaxed);
  out.train_requests = train_requests_.load(std::memory_order_relaxed);
  out.untrain_requests = untrain_requests_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.base_spam_count = base_.database().spam_count();
  out.base_ham_count = base_.database().ham_count();
  out.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (durability_ != nullptr) {
    out.wal_records = durability_->total_records();
    out.wal_bytes = durability_->total_bytes();
    out.wal_snapshots = durability_->snapshots_taken();
    out.group_commit_windows = durability_->group_commit_windows();
    out.incremental_snapshot_bytes = durability_->incremental_snapshot_bytes();
  }
  if (replicator_ != nullptr) {
    const ReplicationStats repl = replicator_->stats();
    out.repl_shipped_seqno = repl.shipped_seqno;
    out.repl_acked_seqno = repl.acked_seqno;
    out.repl_lag_records = repl.lag_records;
  }
  out.standby_applied_records =
      standby_applied_records_.load(std::memory_order_relaxed);
  out.recovery_replayed_records = recovery_stats_.replayed_records;
  out.recovery_torn_dropped = recovery_stats_.torn_dropped;
  out.recovery_ms = recovery_stats_.duration_ms;
  out.recovery_snapshot_users = recovery_stats_.snapshot_users;
  if (const ServerCounters* counters =
          server_counters_.load(std::memory_order_acquire)) {
    out.shed_connections = counters->shed.load(std::memory_order_relaxed);
    out.active_connections = counters->active.load(std::memory_order_relaxed);
  }
  return out;
}

ErrorResponse ServeFrontend::not_primary(const char* what) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  ErrorResponse out;
  out.message = std::string("serve: standby refuses ") + what +
                (redirect_hint_.empty() ? "" : "; primary is at " +
                                                   redirect_hint_);
  out.code = static_cast<std::uint8_t>(ErrorCode::kNotPrimary);
  out.redirect = redirect_hint_;
  return out;
}

Response ServeFrontend::dispatch(const Request& request) {
  try {
    const bool standby = role() == Role::kStandby;
    if (const auto* c = std::get_if<ClassifyBatchRequest>(&request)) {
      // Classify is refused too: a standby's models trail the primary by
      // the ship lag, and "reads may be stale by an unbounded amount" is
      // not a contract any caller opted into.
      if (standby) return not_primary("classify");
      return classify_batch(*c);
    }
    if (const auto* t = std::get_if<TrainRequest>(&request)) {
      if (standby) return not_primary("train");
      return train(*t);
    }
    if (const auto* u = std::get_if<UntrainRequest>(&request)) {
      if (standby) return not_primary("untrain");
      return untrain(*u);
    }
    if (const auto* r = std::get_if<ReplicateBatchRequest>(&request)) {
      if (!standby) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return ErrorResponse{
            "serve: this node is a primary; it does not accept replicated "
            "records (two primaries shipping at each other is a split "
            "brain, not a topology)",
            static_cast<std::uint8_t>(ErrorCode::kGeneric)};
      }
      return replicate_batch(*r);
    }
    if (std::holds_alternative<PromoteRequest>(request)) {
      return promote();
    }
    if (std::holds_alternative<StatsRequest>(request)) {
      return stats();
    }
    return ShutdownResponse{};
  } catch (const Error& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorResponse{e.what()};
  }
}

std::vector<Response> ServeFrontend::classify_many(
    const std::vector<ClassifyBatchRequest>& requests) {
  std::vector<Response> responses(requests.size());
  ShardPlan plan(shards_.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].user_id >= route_.size()) {
      responses[i] = ErrorResponse{"serve: unknown user " +
                                   std::to_string(requests[i].user_id) +
                                   " (serving " +
                                   std::to_string(route_.size()) + " users)"};
      errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    plan[route_[requests[i].user_id].shard].push_back(i);
  }
  util::parallel_over_shards(shards_.size(), [&](std::size_t shard) {
    for (const std::size_t i : plan[shard]) {
      responses[i] = dispatch(Request(requests[i]));
    }
  });
  return responses;
}

}  // namespace sbx::serve
