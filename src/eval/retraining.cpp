#include "eval/retraining.h"

#include <algorithm>

#include "util/error.h"

namespace sbx::eval {
namespace {

struct LabeledBatch {
  core::SpamBatch batch;
  corpus::TrueLabel label = corpus::TrueLabel::spam;
};

struct WeekData {
  std::vector<std::size_t> clean_indices;  // into the accumulated dataset
  std::vector<LabeledBatch> attacks;       // admitted attack batches
};

}  // namespace

std::vector<WeekReport> run_retraining_timeline(
    const corpus::TrecLikeGenerator& gen,
    const std::vector<AttackInjection>& injections,
    const RetrainingConfig& config) {
  if (config.weeks == 0 || config.messages_per_week == 0) {
    throw InvalidArgument("run_retraining_timeline: empty timeline");
  }
  if (!config.cumulative && config.window_weeks == 0) {
    throw InvalidArgument("run_retraining_timeline: zero-width window");
  }

  util::Rng master(config.seed);
  const spambayes::Tokenizer tokenizer(config.filter.tokenizer);
  const core::RoniDefense roni(config.roni, config.filter);

  corpus::TokenizedDataset all_clean;  // grows week by week
  std::vector<WeekData> weeks(config.weeks);
  std::vector<WeekReport> reports;
  reports.reserve(config.weeks);
  std::vector<spambayes::TokenIdSet> fresh_ids;  // reused across weeks

  // BadNets trigger (union across injections; normally one injection).
  spambayes::TokenIdList all_trigger_ids;
  for (const AttackInjection& inj : injections) {
    all_trigger_ids.insert(all_trigger_ids.end(), inj.trigger_ids.begin(),
                           inj.trigger_ids.end());
  }
  const spambayes::TokenIdSet trigger_ids =
      spambayes::unique_token_ids(std::move(all_trigger_ids));

  for (std::size_t week = 0; week < config.weeks; ++week) {
    WeekReport report;
    report.week = week;

    // --- inbound mail for this week ---
    util::Rng week_rng = master.fork(10'000 + week);
    corpus::Dataset inbound = gen.sample_mailbox(
        config.messages_per_week, config.spam_fraction, week_rng);
    corpus::TokenizedDataset inbound_tokens =
        corpus::tokenize_dataset(inbound, tokenizer);

    // The RONI gate measures candidates against previously admitted mail.
    const bool gate_active =
        config.roni_gate &&
        all_clean.size() >=
            config.roni.train_size + config.roni.validation_size;

    for (std::size_t i = 0; i < inbound_tokens.size(); ++i) {
      auto& item = inbound_tokens.items[i];
      if (gate_active && item.label == corpus::TrueLabel::spam) {
        util::Rng gate_rng = week_rng.fork(500 + i);
        if (roni.assess(item.ids, all_clean, gate_rng).rejected) {
          continue;  // ordinary mail rejected by the gate (false positive)
        }
      }
      weeks[week].clean_indices.push_back(all_clean.size());
      all_clean.items.push_back(std::move(item));
    }

    // --- attack injections scheduled for this week ---
    for (const AttackInjection& inj : injections) {
      if (inj.week != week || inj.copies == 0) continue;
      report.attack_offered += inj.copies;
      std::uint32_t admitted = inj.copies;
      // The gate screens the spam folder; ham-labeled poison (the §2.2
      // extension / backdoor) arrives through the ham pipeline and is
      // never assessed.
      if (gate_active && inj.label == corpus::TrueLabel::spam) {
        // All copies are identical; one assessment decides the batch.
        util::Rng gate_rng = week_rng.fork(99'000 + inj.week);
        if (roni.assess(inj.ids, all_clean, gate_rng).rejected) {
          admitted = 0;
        }
      }
      report.attack_admitted += admitted;
      if (admitted > 0) {
        weeks[week].attacks.push_back({{inj.ids, admitted}, inj.label});
      }
    }

    // --- retrain on the configured scope ---
    const std::size_t scope_begin =
        config.cumulative
            ? 0
            : week + 1 - std::min(config.window_weeks, week + 1);
    spambayes::Filter filter(config.filter);
    std::vector<std::size_t> scope_indices;
    std::vector<core::SpamBatch> scope_attacks;
    for (std::size_t w = scope_begin; w <= week; ++w) {
      for (std::size_t idx : weeks[w].clean_indices) {
        const auto& item = all_clean.items[idx];
        if (item.label == corpus::TrueLabel::spam) {
          filter.train_spam_ids(item.ids);
        } else {
          filter.train_ham_ids(item.ids);
        }
        scope_indices.push_back(idx);
      }
      for (const auto& labeled : weeks[w].attacks) {
        if (labeled.label == corpus::TrueLabel::spam) {
          filter.train_spam_ids(labeled.batch.ids, labeled.batch.copies);
          // Ham-labeled batches never sit in the spam folder, so only
          // spam-labeled ones inform the threshold re-derivation.
          scope_attacks.push_back(labeled.batch);
        } else {
          filter.train_ham_ids(labeled.batch.ids, labeled.batch.copies);
        }
        report.training_size += labeled.batch.copies;
      }
    }
    report.training_size += scope_indices.size();

    // --- per-cycle threshold re-derivation (§5.2) ---
    core::ThresholdPair thresholds{config.filter.classifier.ham_cutoff,
                                   config.filter.classifier.spam_cutoff};
    if (config.dynamic_thresholds && scope_indices.size() >= 2) {
      util::Rng split_rng = week_rng.fork(777);
      thresholds = core::compute_dynamic_thresholds(
          all_clean, scope_indices, scope_attacks, config.filter,
          config.threshold_targets, split_rng);
    }
    report.thresholds = thresholds;

    // --- measure on fresh mail ---
    util::Rng test_rng = master.fork(50'000 + week);
    corpus::Dataset fresh = gen.sample_mailbox(config.test_messages,
                                               config.spam_fraction, test_rng);
    fresh_ids.clear();
    fresh_ids.reserve(fresh.items.size());
    for (const auto& item : fresh.items) {
      fresh_ids.push_back(tokenizer.tokenize_id_set(item.message));
    }
    filter.classify_batch(
        fresh_ids.size(),
        [&](std::size_t i) -> const spambayes::TokenIdList& {
          return fresh_ids[i];
        },
        [&](std::size_t i, const spambayes::BatchScore& scored) {
          report.test.add(fresh.items[i].label,
                          spambayes::Classifier::verdict_for(
                              scored.score, thresholds.theta0,
                              thresholds.theta1));
        });

    // --- BadNets leak probe: the same fresh spam, trigger-stamped ---
    if (!trigger_ids.empty()) {
      std::vector<spambayes::TokenIdSet> stamped;
      for (std::size_t i = 0; i < fresh.items.size(); ++i) {
        if (fresh.items[i].label != corpus::TrueLabel::spam) continue;
        spambayes::TokenIdList ids = fresh_ids[i];
        ids.insert(ids.end(), trigger_ids.begin(), trigger_ids.end());
        stamped.push_back(spambayes::unique_token_ids(std::move(ids)));
      }
      filter.classify_batch(
          stamped.size(),
          [&](std::size_t i) -> const spambayes::TokenIdList& {
            return stamped[i];
          },
          [&](std::size_t, const spambayes::BatchScore& scored) {
            report.trigger_probes += 1;
            report.trigger_leaked +=
                spambayes::Classifier::verdict_for(scored.score,
                                                   thresholds.theta0,
                                                   thresholds.theta1) !=
                        spambayes::Verdict::spam
                    ? 1
                    : 0;
          });
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace sbx::eval
