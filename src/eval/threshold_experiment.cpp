// Figure 5 driver: dynamic threshold defense vs. the dictionary attack.
#include <algorithm>

#include "core/attack_math.h"
#include "eval/experiments.h"
#include "eval/runner.h"

namespace sbx::eval {
namespace {

/// One fold's measurements across every (fraction, variant) cell.
struct ThresholdFoldResult {
  std::vector<ConfusionMatrix> plain;  // per fraction
  std::vector<std::vector<ConfusionMatrix>> defended;
  std::vector<std::vector<core::ThresholdPair>> thresholds;
};

}  // namespace

std::vector<ThresholdCurvePoint> run_threshold_defense_curve(
    const corpus::TrecLikeGenerator& gen, const core::CanonicalPoison& poison,
    const ThresholdDefenseConfig& config) {
  const DictionaryCurveConfig& base = config.base;
  Runner runner(base.seed, base.threads);

  const std::size_t pool_size =
      base.training_set_size * base.folds / (base.folds - 1);
  util::Rng corpus_rng = runner.fork(1);
  const corpus::Dataset dataset =
      gen.sample_mailbox(pool_size, base.spam_fraction, corpus_rng);
  const spambayes::Tokenizer tokenizer(base.filter.tokenizer);
  const corpus::TokenizedDataset tokenized =
      corpus::tokenize_dataset(dataset, tokenizer);
  const spambayes::TokenIdSet attack_ids =
      tokenizer.tokenize_id_set(poison.message);
  const bool train_as_spam = poison.train_as == corpus::TrueLabel::spam;

  util::Rng fold_rng = runner.fork(2);
  const std::vector<corpus::FoldSplit> folds =
      corpus::k_fold_splits(tokenized.size(), base.folds, fold_rng);

  std::vector<double> fractions = base.attack_fractions;
  std::sort(fractions.begin(), fractions.end());
  fractions.insert(fractions.begin(), 0.0);

  const std::size_t n_variants = config.variants.size();
  std::vector<ThresholdCurvePoint> points(fractions.size());
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    points[pi].attack_fraction = fractions[pi];
    points[pi].defended.resize(n_variants);
    points[pi].mean_thresholds.resize(n_variants);
  }
  // Accumulate thresholds as sums, convert to means at the end.
  std::vector<std::vector<core::ThresholdPair>> threshold_sums(
      fractions.size(), std::vector<core::ThresholdPair>(n_variants,
                                                         {0.0, 0.0}));

  runner.map_reduce(
      folds.size(), /*salt=*/3000,
      [&](std::size_t f, util::Rng& rng) {
        const corpus::FoldSplit& split = folds[f];
        spambayes::Filter filter(base.filter);
        train_on_indices(filter, tokenized, split.train);

        std::size_t trained_attack = 0;
        ThresholdFoldResult local;
        local.plain.resize(fractions.size());
        local.defended.assign(fractions.size(),
                              std::vector<ConfusionMatrix>(n_variants));
        local.thresholds.assign(fractions.size(),
                                std::vector<core::ThresholdPair>(n_variants));

        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          const std::size_t want =
              core::attack_message_count(split.train.size(), fractions[pi]);
          if (want > trained_attack) {
            const auto copies =
                static_cast<std::uint32_t>(want - trained_attack);
            if (train_as_spam) {
              filter.train_spam_ids(attack_ids, copies);
            } else {
              filter.train_ham_ids(attack_ids, copies);
            }
            trained_attack = want;
          }

          // Dynamic thresholds from a half/half split of the poisoned
          // training set. Ham-labeled poison is invisible to the
          // derivation (it never sits in the spam folder the defense
          // re-scores), so only spam-labeled copies form a batch.
          std::vector<core::SpamBatch> batches;
          if (train_as_spam && trained_attack > 0) {
            batches.push_back(
                {attack_ids, static_cast<std::uint32_t>(trained_attack)});
          }
          std::vector<core::ThresholdPair> pairs(n_variants);
          for (std::size_t vi = 0; vi < n_variants; ++vi) {
            util::Rng split_rng = rng.fork(17 * (pi + 1) + vi);
            pairs[vi] = core::compute_dynamic_thresholds(
                tokenized, split.train, batches, base.filter,
                config.variants[vi], split_rng);
            local.thresholds[pi][vi] = pairs[vi];
          }

          // Score the test fold once (batch path, zero per-message
          // allocation); apply every cutoff pair to each score.
          filter.classify_batch(
              split.test.size(),
              [&](std::size_t i) -> const spambayes::TokenIdList& {
                return tokenized.items[split.test[i]].ids;
              },
              [&](std::size_t i, const spambayes::BatchScore& scored) {
                const auto& item = tokenized.items[split.test[i]];
                local.plain[pi].add(
                    item.label,
                    filter.classifier().verdict_for(scored.score));
                for (std::size_t vi = 0; vi < n_variants; ++vi) {
                  local.defended[pi][vi].add(
                      item.label,
                      spambayes::Classifier::verdict_for(
                          scored.score, pairs[vi].theta0, pairs[vi].theta1));
                }
              });
        }
        return local;
      },
      [&](std::size_t, ThresholdFoldResult local) {
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          points[pi].no_defense.merge(local.plain[pi]);
          for (std::size_t vi = 0; vi < n_variants; ++vi) {
            points[pi].defended[vi].merge(local.defended[pi][vi]);
            threshold_sums[pi][vi].theta0 += local.thresholds[pi][vi].theta0;
            threshold_sums[pi][vi].theta1 += local.thresholds[pi][vi].theta1;
          }
        }
      });

  const std::size_t train_size = folds.front().train.size();
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    points[pi].attack_messages =
        core::attack_message_count(train_size, fractions[pi]);
    for (std::size_t vi = 0; vi < n_variants; ++vi) {
      points[pi].mean_thresholds[vi].theta0 =
          threshold_sums[pi][vi].theta0 / static_cast<double>(folds.size());
      points[pi].mean_thresholds[vi].theta1 =
          threshold_sums[pi][vi].theta1 / static_cast<double>(folds.size());
    }
  }
  return points;
}

}  // namespace sbx::eval
