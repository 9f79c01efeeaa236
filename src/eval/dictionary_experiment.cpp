// Figures 1 and 5 driver: identical-copy Causative attacks under K-fold
// cross-validation. Generic over the core::CanonicalPoison — spam-labeled
// dictionary poisoning (the paper's §3.2 attacks) runs bit-identically to
// the historical driver, while ham-labeled poisons (ham-labeled, backdoor)
// train their copies as ham and, when the poison carries BadNets trigger
// tokens, every test-fold spam is additionally re-classified with the
// trigger stamped in. The §5.2 dynamic-threshold defense is measured on the
// same sweep: each listed variant re-derives its cutoffs from the poisoned
// training fold and re-files the test fold's scores under them.
#include <algorithm>

#include "core/attack_math.h"
#include "eval/experiments.h"
#include "eval/runner.h"

namespace sbx::eval {

spambayes::TokenIdSet trigger_token_ids(
    const core::CanonicalPoison& poison,
    const spambayes::Tokenizer& tokenizer) {
  if (poison.trigger.empty()) return {};
  std::string joined;
  for (const auto& token : poison.trigger) {
    if (!joined.empty()) joined.push_back(' ');
    joined += token;
  }
  return tokenizer.tokenize_text_id_set(joined);
}

DictionaryCurve run_dictionary_curve(const corpus::TrecLikeGenerator& gen,
                                     const core::CanonicalPoison& poison,
                                     const DictionaryCurveConfig& config) {
  Runner runner(config.seed, config.threads);

  // Pool sized so each fold trains on ~training_set_size messages:
  // train = pool * (K-1)/K.
  const std::size_t pool_size =
      config.training_set_size * config.folds / (config.folds - 1);
  util::Rng corpus_rng = runner.fork(1);
  const corpus::Dataset dataset =
      gen.sample_mailbox(pool_size, config.spam_fraction, corpus_rng);

  const spambayes::Tokenizer tokenizer(config.filter.tokenizer);
  const corpus::TokenizedDataset tokenized =
      corpus::tokenize_dataset(dataset, tokenizer);
  // §4.2 compares attack tokens against the tokens of the *training* inbox;
  // scale the pool-wide count (collected during tokenize_dataset — no
  // second tokenization pass) down to one fold's training share.
  const std::size_t clean_tokens =
      tokenized.raw_tokens * (config.folds - 1) / config.folds;

  // One pass over the attack message: its deduplicated ids feed training,
  // and its raw token count is the §4.2 numerator.
  std::size_t attack_tokens_per_message = 0;
  const spambayes::TokenIdSet attack_ids = tokenizer.tokenize_id_set(
      poison.message, spambayes::IdMode::kIntern, &attack_tokens_per_message);
  const bool train_as_spam = poison.train_as == corpus::TrueLabel::spam;

  // The BadNets trigger, as the ids stamping it onto a message produces.
  const bool has_trigger = !poison.trigger.empty();
  const spambayes::TokenIdSet trigger_ids =
      trigger_token_ids(poison, tokenizer);

  util::Rng fold_rng = runner.fork(2);
  const std::vector<corpus::FoldSplit> folds =
      corpus::k_fold_splits(tokenized.size(), config.folds, fold_rng);

  // Fractions evaluated in ascending order so attack copies can be added
  // incrementally; a leading 0 gives the control measurement.
  std::vector<double> fractions = config.attack_fractions;
  std::sort(fractions.begin(), fractions.end());
  fractions.insert(fractions.begin(), 0.0);

  // Every fold trains at most this many copies; checking it once here makes
  // the per-fold narrowing below safe.
  std::size_t max_train = 0;
  for (const corpus::FoldSplit& split : folds) {
    max_train = std::max(max_train, split.train.size());
  }
  checked_copies(core::attack_message_count(max_train, fractions.back()));

  const std::vector<core::DynamicThresholdConfig>& variants =
      config.threshold_variants;
  const std::size_t n_variants = variants.size();

  /// One fold's measurements; the outer index is the fraction.
  struct FoldResult {
    std::vector<ConfusionMatrix> plain;
    std::vector<ConfusionMatrix> triggered;
    std::vector<std::vector<ConfusionMatrix>> defended;
    std::vector<std::vector<core::ThresholdPair>> thresholds;
  };

  std::vector<DictionaryCurvePoint> points(fractions.size());
  for (DictionaryCurvePoint& point : points) {
    point.defended.resize(n_variants);
    point.mean_thresholds.assign(n_variants, {0.0, 0.0});  // sums first
  }

  runner.map_reduce(
      folds.size(), /*salt=*/3000,
      [&](std::size_t f, util::Rng& rng) {
        const corpus::FoldSplit& split = folds[f];
        spambayes::Filter filter(config.filter);
        train_on_indices(filter, tokenized, split.train);

        // Stamped test-fold spam (trigger measurement only): id sets are
        // precomputed per fold, re-classified at every fraction.
        std::vector<std::size_t> spam_test;
        std::vector<spambayes::TokenIdSet> stamped;
        if (has_trigger) {
          for (std::size_t i : split.test) {
            if (tokenized.items[i].label != corpus::TrueLabel::spam) continue;
            spam_test.push_back(i);
            spambayes::TokenIdList ids = tokenized.items[i].ids;
            ids.insert(ids.end(), trigger_ids.begin(), trigger_ids.end());
            stamped.push_back(spambayes::unique_token_ids(std::move(ids)));
          }
        }

        std::size_t trained_attack = 0;
        FoldResult local;
        local.plain.resize(fractions.size());
        local.triggered.resize(fractions.size());
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
          std::vector<core::ThresholdPair>& pairs = local.thresholds[pi];
          if (n_variants > 0) {
            std::vector<core::SpamBatch> batches;
            if (train_as_spam && trained_attack > 0) {
              batches.push_back(
                  {attack_ids, static_cast<std::uint32_t>(trained_attack)});
            }
            for (std::size_t vi = 0; vi < n_variants; ++vi) {
              util::Rng split_rng = rng.fork(17 * (pi + 1) + vi);
              pairs[vi] = core::compute_dynamic_thresholds(
                  tokenized, split.train, batches, config.filter,
                  variants[vi], split_rng);
            }
          }

          // Score the test fold once; every cutoff pair re-files the score.
          filter.classify_batch(
              split.test.size(),
              [&](std::size_t i) -> const spambayes::TokenIdList& {
                return tokenized.items[split.test[i]].ids;
              },
              [&](std::size_t i, const spambayes::BatchScore& scored) {
                const corpus::TrueLabel label =
                    tokenized.items[split.test[i]].label;
                local.plain[pi].add(label, scored.verdict);
                for (std::size_t vi = 0; vi < n_variants; ++vi) {
                  local.defended[pi][vi].add(
                      label, spambayes::Classifier::verdict_for(
                                 scored.score, pairs[vi].theta0,
                                 pairs[vi].theta1));
                }
              });
          if (has_trigger) {
            filter.classify_batch(
                stamped.size(),
                [&](std::size_t i) -> const spambayes::TokenIdList& {
                  return stamped[i];
                },
                [&](std::size_t i, const spambayes::BatchScore& scored) {
                  local.triggered[pi].add(tokenized.items[spam_test[i]].label,
                                          scored.verdict);
                });
          }
        }
        return local;
      },
      [&](std::size_t, FoldResult local) {
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          DictionaryCurvePoint& point = points[pi];
          point.matrix.merge(local.plain[pi]);
          point.ham_misclassified_by_fold.add(
              local.plain[pi].ham_misclassified_rate());
          point.triggered.merge(local.triggered[pi]);
          for (std::size_t vi = 0; vi < n_variants; ++vi) {
            point.defended[vi].merge(local.defended[pi][vi]);
            point.mean_thresholds[vi].theta0 += local.thresholds[pi][vi].theta0;
            point.mean_thresholds[vi].theta1 += local.thresholds[pi][vi].theta1;
          }
        }
      });

  DictionaryCurve curve;
  curve.attack_name = poison.display_name;
  curve.dictionary_size = poison.payload_size;
  curve.has_trigger = has_trigger;
  const std::size_t train_size = folds.front().train.size();
  for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
    DictionaryCurvePoint& point = points[pi];
    point.attack_fraction = fractions[pi];
    point.attack_messages =
        core::attack_message_count(train_size, fractions[pi]);
    point.attack_token_ratio =
        clean_tokens == 0
            ? 0.0
            : static_cast<double>(point.attack_messages *
                                  attack_tokens_per_message) /
                  static_cast<double>(clean_tokens);
    for (core::ThresholdPair& mean : point.mean_thresholds) {
      mean.theta0 /= static_cast<double>(folds.size());
      mean.theta1 /= static_cast<double>(folds.size());
    }
  }
  curve.points = std::move(points);
  return curve;
}

}  // namespace sbx::eval
