// sbx/eval/retraining.h
//
// Periodic-retraining simulation of the paper's deployment scenario
// (§2.1): "the organization retrains SpamBayes periodically (e.g.,
// weekly)" on the mail it received. The simulator advances week by week,
// feeds each week's inbound mail (optionally poisoned on a schedule) into
// the training pipeline — optionally gated by RONI and/or re-deriving
// dynamic thresholds — retrains, and measures the filter on fresh mail.
//
// This extends the paper's one-shot experiments with the question its
// deployment story raises but never measures: how does poison *persist*
// across retraining cycles, under cumulative vs sliding-window training?
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dynamic_threshold.h"
#include "core/roni.h"
#include "corpus/generator.h"
#include "eval/metrics.h"
#include "spambayes/filter.h"

namespace sbx::eval {

/// One week's attack injection: `copies` copies of a message, trained
/// under `label` (spam for the §2.2 contamination model; ham for the
/// inbox-poisoning extensions — ham-labeled, backdoor). Ham-labeled
/// injections bypass the RONI gate: the gate screens the spam folder.
struct AttackInjection {
  std::size_t week = 0;
  spambayes::TokenIdSet ids;
  std::uint32_t copies = 0;
  corpus::TrueLabel label = corpus::TrueLabel::spam;
  /// BadNets trigger ids: when non-empty, every weekly measurement also
  /// scores the fresh spam with these ids stamped in (WeekReport
  /// trigger_probes/trigger_leaked).
  spambayes::TokenIdSet trigger_ids;

  AttackInjection() = default;
  AttackInjection(std::size_t week_in, spambayes::TokenIdSet ids_in,
                  std::uint32_t copies_in)
      : week(week_in), ids(std::move(ids_in)), copies(copies_in) {}
};

/// Timeline configuration.
struct RetrainingConfig {
  std::size_t weeks = 8;
  std::size_t messages_per_week = 1'000;
  double spam_fraction = 0.5;
  std::size_t test_messages = 400;  // fresh mail scored after each retrain

  /// Cumulative: retrain on everything ever received. Sliding window:
  /// retrain on the last `window_weeks` weeks only.
  bool cumulative = true;
  std::size_t window_weeks = 3;

  /// Gate spam-labeled training candidates through RONI (§5.1). The gate's
  /// measurement pool is the previous weeks' admitted mail.
  bool roni_gate = false;
  core::RoniConfig roni;

  /// Re-derive classification thresholds from each cycle's training set
  /// (§5.2) instead of the static 0.15/0.9.
  bool dynamic_thresholds = false;
  core::DynamicThresholdConfig threshold_targets{0.05, 0.95};

  spambayes::FilterOptions filter;
  std::uint64_t seed = 20080405;
};

/// Post-retrain measurement for one week.
struct WeekReport {
  std::size_t week = 0;
  ConfusionMatrix test;            // fresh-mail classification
  std::size_t attack_offered = 0;  // attack copies arriving this week
  std::size_t attack_admitted = 0; // copies surviving the RONI gate
  core::ThresholdPair thresholds{0.15, 0.9};
  std::size_t training_size = 0;   // messages trained on this cycle
  /// BadNets measurement (zero unless an injection carries trigger ids):
  /// fresh spam re-scored with the trigger stamped in; "leaked" = not
  /// filed as spam under this week's thresholds.
  std::size_t trigger_probes = 0;
  std::size_t trigger_leaked = 0;
};

/// Runs the timeline; returns one report per week (after that week's
/// retraining). Attack injections with week >= config.weeks are ignored.
std::vector<WeekReport> run_retraining_timeline(
    const corpus::TrecLikeGenerator& gen,
    const std::vector<AttackInjection>& injections,
    const RetrainingConfig& config);

}  // namespace sbx::eval
