// sbx/eval/experiments.h
//
// Experiment drivers regenerating every figure and table of the paper's
// evaluation (§4-§5). Each driver owns the full pipeline — corpus sampling,
// cross-validation, attack injection, measurement — and returns plain
// result structs; the figure specs only format them. Tests run the same
// drivers at reduced scale.
//
// One measurement core per attack family:
//  * run_dictionary_curve is the one K-fold Causative sweep. Figure 1 reads
//    its undefended matrices; Figure 5 (the §5.2 dynamic-threshold defense)
//    is a measurement on the same sweep, enabled by listing threshold
//    variants.
//  * the focused drivers (Figures 2-4 and the §4.3 guessing ablation) share
//    one poison harness: per repetition a clean inbox and its filter, and
//    per target "train the first k poison emails under the attack's label,
//    measure, untrain exactly".
//
// Attacks: a driver names an attack only through the attack registry. The
// Causative sweep takes the core::CanonicalPoison a registry attack crafts
// (eval::resolve_poison, attack_axis.h); the focused drivers take a
// core::Attack and its params. An identical-copy attack (canonical_poison()
// has a value) is tokenized once and trained as copies on either path;
// otherwise the focused harness tokenizes each email craft_poison returns.
//
// Determinism: every driver forks all randomness from its config seed, and
// parallelism (folds / repetitions across threads) never changes results.
// All drivers execute through eval::Runner (runner.h), which enforces this:
// per-trial RNG streams are pre-forked from the master stream in program
// order and results are merged in trial order, so thread count affects
// wall-clock time only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/attack.h"
#include "core/dynamic_threshold.h"
#include "core/roni.h"
#include "corpus/dataset.h"
#include "corpus/generator.h"
#include "eval/metrics.h"
#include "spambayes/filter.h"
#include "util/stats.h"

namespace sbx::eval {

/// The poison's trigger tokens as the deduplicated id set that stamping
/// them onto a message produces (empty when the attack has no trigger).
/// Single home for the trigger-text tokenization so the dictionary and
/// retraining measurements cannot diverge.
spambayes::TokenIdSet trigger_token_ids(const core::CanonicalPoison& poison,
                                        const spambayes::Tokenizer& tokenizer);

// ---------------------------------------------------------------------------
// Figures 1 and 5: dictionary attacks vs. percent control of the training
// set, and the dynamic threshold defense measured on the same sweep.
// ---------------------------------------------------------------------------

/// Parameters (defaults = Table 1, large configuration: 10,000-message
/// training set, 50% spam, 10-fold cross-validation).
struct DictionaryCurveConfig {
  std::size_t training_set_size = 10'000;
  double spam_fraction = 0.5;
  /// Attack strength as fraction of the *final* training set; 0 (control)
  /// is always measured and need not be listed.
  std::vector<double> attack_fractions = {0.001, 0.005, 0.01,
                                          0.02,  0.05,  0.10};
  std::size_t folds = 10;
  std::uint64_t seed = 20080401;
  spambayes::FilterOptions filter;
  std::size_t threads = 0;  // 0 = hardware concurrency
  /// Figure 5's dynamic-threshold defense variants, measured on the same
  /// sweep (paper: Threshold-.05 = (0.05, 0.95) and Threshold-.10 =
  /// (0.10, 0.90)). Empty for Figure 1, which then costs what it did
  /// before the defense shared its sweep.
  std::vector<core::DynamicThresholdConfig> threshold_variants;
};

/// One point of a Figure-1 curve (fold-aggregated).
struct DictionaryCurvePoint {
  double attack_fraction = 0.0;
  std::size_t attack_messages = 0;  // per fold, a = clean*f/(1-f)
  /// Ratio of attack token instances to clean-corpus token instances
  /// (the §4.2 statistic: ~7x for Aspell at 2%).
  double attack_token_ratio = 0.0;
  ConfusionMatrix matrix;
  /// Per-fold ham-misclassification rates — the spread behind the paper's
  /// "variation on our tests was small" remark (§4.1).
  util::RunningStats ham_misclassified_by_fold;
  /// BadNets measurement, filled only when the attack defines trigger
  /// tokens: every test-fold spam message re-classified with the trigger
  /// stamped in (true label spam; "leak" = not filed as spam).
  ConfusionMatrix triggered;
  /// Figure 5, parallel to config.threshold_variants: the test folds
  /// re-filed under each variant's dynamic thresholds, and those
  /// thresholds averaged over folds (`matrix` is the undefended filter).
  std::vector<ConfusionMatrix> defended;
  std::vector<core::ThresholdPair> mean_thresholds;
};

/// A full curve for one attack variant. points[0] is the control (no
/// attack).
struct DictionaryCurve {
  std::string attack_name;
  std::size_t dictionary_size = 0;
  bool has_trigger = false;  // whether points[i].triggered is meaningful
  std::vector<DictionaryCurvePoint> points;
};

/// Generic Causative driver: trains `poison.message` copies under
/// `poison.train_as` at each attack fraction. For a spam-labeled poison
/// with no trigger this is bit-identical to the historical dictionary
/// driver. Throws InvalidArgument when a fold's attack count does not fit
/// the model's uint32 message counts.
DictionaryCurve run_dictionary_curve(const corpus::TrecLikeGenerator& gen,
                                     const core::CanonicalPoison& poison,
                                     const DictionaryCurveConfig& config);

// ---------------------------------------------------------------------------
// Figures 2 & 3: the focused attack.
// ---------------------------------------------------------------------------

/// Shared focused-attack experiment parameters (Table 1: 5,000-message
/// inbox, 50% spam, 20 targets, 5 repetitions).
struct FocusedConfig {
  std::size_t inbox_size = 5'000;
  double spam_fraction = 0.5;
  std::size_t target_count = 20;
  std::size_t repetitions = 5;
  std::uint64_t seed = 20080402;
  spambayes::FilterOptions filter;
  std::size_t threads = 0;
};

/// Per-repetition environment of the focused experiments: a fresh clean
/// inbox sampled from `rng`, the filter trained on it, and the pool of
/// spam messages whose headers attack emails clone.
struct FocusedRun {
  corpus::Dataset inbox;
  corpus::TokenizedDataset tokenized;
  spambayes::Filter filter;
  std::vector<const email::Message*> spam_headers;

  FocusedRun(const corpus::TrecLikeGenerator& gen, const FocusedConfig& config,
             util::Rng& rng);
};

/// One target's poison, tokenized: `count` emails trained under `label`.
/// `emails` holds one id set per crafted email, or for identical-copy
/// poison the one id set every copy shares.
struct TargetPoison {
  std::vector<spambayes::TokenIdSet> emails;
  std::size_t count = 0;
  corpus::TrueLabel label = corpus::TrueLabel::spam;
  std::string first_body;  // the first email's body (Figure 4's guess)
};

/// Crafts ctx.count poison emails. When attack.canonical_poison() has a
/// value it is called with ctx.rng (the stream craft_poison() would have
/// drawn from) and its message is tokenized once; otherwise every email
/// craft_poison() returns is tokenized.
TargetPoison craft_target_poison(const core::Attack& attack,
                                 core::CraftContext& ctx,
                                 const spambayes::Tokenizer& tokenizer);

/// The focused harness: for each i, trains the first counts[i] poison
/// emails (ascending; each step trains on top of the last) and calls
/// measure(i); then untrains exactly what it trained, restoring `filter`.
void with_poison_trained(spambayes::Filter& filter, const TargetPoison& poison,
                         const std::vector<std::size_t>& counts,
                         const std::function<void(std::size_t)>& measure);

/// Figure 2: post-attack verdict distribution of the targets as a function
/// of the attacker's knowledge p.
struct FocusedKnowledgePoint {
  double guess_probability = 0.0;
  std::size_t targets = 0;      // total (target, repetition) runs
  std::size_t as_ham = 0;       // still delivered
  std::size_t as_unsure = 0;
  std::size_t as_spam = 0;
  std::size_t control_as_ham = 0;  // pre-attack sanity: targets are ham
};

/// `attack` crafts the per-target poison through core::Attack::craft_poison
/// (the CraftContext carries the target, its attacker-guessable body words
/// and the spam header pool). When the attack declares a
/// "guess_probability" parameter it is overridden per point; other attacks
/// run once per listed probability with identical poison (the x-axis
/// degenerates, but indiscriminate attacks remain comparable against the
/// focused curves).
std::vector<FocusedKnowledgePoint> run_focused_knowledge(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params,
    const std::vector<double>& guess_probabilities, std::size_t attack_count,
    const FocusedConfig& config);

/// Figure 3: misclassification of the target as a function of attack size
/// (guess probability fixed, paper: p = 0.5).
struct FocusedSizePoint {
  double attack_fraction = 0.0;
  std::size_t attack_messages = 0;
  std::size_t targets = 0;
  std::size_t as_spam = 0;
  std::size_t as_unsure_or_spam = 0;
};

std::vector<FocusedSizePoint> run_focused_size(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params, double guess_probability,
    const std::vector<double>& attack_fractions, const FocusedConfig& config);

// ---------------------------------------------------------------------------
// Figure 4: per-token score shift under the focused attack.
// ---------------------------------------------------------------------------

/// One token of the target email before/after the attack.
struct TokenShiftPoint {
  std::string token;
  double score_before = 0.5;  // f(w), Eq. 2
  double score_after = 0.5;
  bool in_attack = false;  // did the attacker guess this token?
};

/// One representative target email (the paper shows three: post-attack
/// spam, unsure, and ham).
struct TokenShiftExample {
  spambayes::Verdict verdict_after = spambayes::Verdict::unsure;
  double message_score_before = 0.0;
  double message_score_after = 0.0;
  std::vector<TokenShiftPoint> tokens;
};

/// Runs the registry "focused" attack (default params, `guess_probability`
/// overridden) on fresh targets until one example of each post-attack
/// verdict is found (or `max_targets` tried).
std::vector<TokenShiftExample> run_token_shift(
    const corpus::TrecLikeGenerator& gen, double guess_probability,
    std::size_t attack_count, const FocusedConfig& config,
    std::size_t max_targets = 60);

// ---------------------------------------------------------------------------
// §5.1: the RONI defense.
// ---------------------------------------------------------------------------

/// Parameters (defaults = §5.1: 120 non-attack spam queries, 15 repetitions
/// of each dictionary-attack variant, T=20/V=50/5 resamples inside RONI).
struct RoniExperimentConfig {
  core::RoniConfig roni;
  std::size_t pool_size = 1'000;  // clean pool RONI samples (T, V) from
  double spam_fraction = 0.5;
  std::size_t nonattack_queries = 120;
  std::size_t attack_repetitions = 15;
  std::uint64_t seed = 20080403;
  spambayes::FilterOptions filter;
  std::size_t threads = 0;
};

/// Aggregated assessment outcomes for one query class.
struct RoniVariantResult {
  std::string name;
  util::RunningStats impact;  // ham-as-ham decrease per assessment
  std::size_t assessed = 0;
  std::size_t rejected = 0;

  double rejection_rate() const {
    return assessed == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(assessed);
  }
};

struct RoniExperimentResult {
  RoniVariantResult nonattack_spam;  // rejections here are false positives
  std::vector<RoniVariantResult> attack_variants;
};

/// One named attack query RONI assesses `attack_repetitions` times.
struct RoniQuery {
  std::string name;
  email::Message message;
};

RoniExperimentResult run_roni_experiment(const corpus::TrecLikeGenerator& gen,
                                         const std::vector<RoniQuery>& queries,
                                         const RoniExperimentConfig& config);

// ---------------------------------------------------------------------------
// Shared helpers (exposed for tests).
// ---------------------------------------------------------------------------

/// `count` poison copies as the uint32 the model's train calls take.
/// Throws InvalidArgument when the count does not fit, instead of letting
/// the cast wrap and train (and report) a different number.
std::uint32_t checked_copies(std::uint64_t count);

/// Trains a filter on the given items of a tokenized dataset.
void train_on_indices(spambayes::Filter& filter,
                      const corpus::TokenizedDataset& data,
                      const std::vector<std::size_t>& indices);

/// Classifies the given items and accumulates a confusion matrix.
ConfusionMatrix classify_indices(const spambayes::Filter& filter,
                                 const corpus::TokenizedDataset& data,
                                 const std::vector<std::size_t>& indices);

/// Total raw (with duplicates) token count of a dataset under a tokenizer —
/// the denominator of the §4.2 token-ratio statistic.
std::size_t raw_token_count(const corpus::Dataset& data,
                            const spambayes::Tokenizer& tokenizer);

}  // namespace sbx::eval
