// §5.1 driver: the RONI defense against dictionary-attack and non-attack
// spam queries.
#include "eval/experiments.h"
#include "eval/runner.h"

namespace sbx::eval {
namespace {

/// One RONI assessment outcome, merged in query order by the Runner.
struct AssessmentOutcome {
  double impact = 0.0;
  bool rejected = false;
};

void merge_outcome(RoniVariantResult& variant, const AssessmentOutcome& o) {
  variant.impact.add(o.impact);
  variant.assessed += 1;
  variant.rejected += o.rejected ? 1 : 0;
}

}  // namespace

RoniExperimentResult run_roni_experiment(const corpus::TrecLikeGenerator& gen,
                                         const std::vector<RoniQuery>& queries,
                                         const RoniExperimentConfig& config) {
  Runner runner(config.seed, config.threads);

  util::Rng pool_rng = runner.fork(1);
  const corpus::Dataset pool_dataset =
      gen.sample_mailbox(config.pool_size, config.spam_fraction, pool_rng);
  const spambayes::Tokenizer tokenizer(config.filter.tokenizer);
  const corpus::TokenizedDataset pool =
      corpus::tokenize_dataset(pool_dataset, tokenizer);

  const core::RoniDefense defense(config.roni, config.filter);

  RoniExperimentResult result;
  result.nonattack_spam.name = "non-attack spam";

  // --- non-attack spam queries: fresh spam emails, one assessment each ---
  {
    util::Rng query_rng = runner.fork(2);
    std::vector<spambayes::TokenIdSet> spam_queries;
    spam_queries.reserve(config.nonattack_queries);
    for (std::size_t i = 0; i < config.nonattack_queries; ++i) {
      spam_queries.push_back(
          tokenizer.tokenize_id_set(gen.generate_spam(query_rng)));
    }
    runner.map_reduce(
        spam_queries.size(), query_rng,
        [&](std::size_t i, util::Rng& rng) {
          const core::RoniAssessment a =
              defense.assess(spam_queries[i], pool, rng);
          return AssessmentOutcome{a.mean_ham_as_ham_decrease, a.rejected};
        },
        [&](std::size_t, AssessmentOutcome o) {
          merge_outcome(result.nonattack_spam, o);
        });
  }

  // --- attack queries, `attack_repetitions` assessments each ---
  for (std::size_t ai = 0; ai < queries.size(); ++ai) {
    const RoniQuery& query = queries[ai];
    RoniVariantResult variant;
    variant.name = query.name;
    const spambayes::TokenIdSet attack_ids =
        tokenizer.tokenize_id_set(query.message);

    util::Rng attack_rng = runner.fork(100 + ai);
    runner.map_reduce(
        config.attack_repetitions, attack_rng,
        [&](std::size_t, util::Rng& rng) {
          const core::RoniAssessment a =
              defense.assess(attack_ids, pool, rng);
          return AssessmentOutcome{a.mean_ham_as_ham_decrease, a.rejected};
        },
        [&](std::size_t, AssessmentOutcome o) { merge_outcome(variant, o); });
    result.attack_variants.push_back(std::move(variant));
  }
  return result;
}

}  // namespace sbx::eval
