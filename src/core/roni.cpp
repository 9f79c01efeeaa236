#include "core/roni.h"

#include "util/error.h"

namespace sbx::core {

RoniDefense::RoniDefense(RoniConfig config,
                         spambayes::FilterOptions filter_options)
    : config_(config), filter_options_(filter_options) {
  if (config_.train_size == 0 || config_.validation_size == 0 ||
      config_.resamples == 0) {
    throw InvalidArgument("RoniDefense: sizes must be positive");
  }
}

RoniAssessment RoniDefense::assess(const spambayes::TokenIdSet& query_ids,
                                   const corpus::TokenizedDataset& pool,
                                   util::Rng& rng) const {
  const std::size_t needed = config_.train_size + config_.validation_size;
  if (pool.size() < needed) {
    throw InvalidArgument("RoniDefense::assess: pool smaller than |T| + |V|");
  }

  RoniAssessment out;
  out.per_trial.reserve(config_.resamples);
  std::vector<std::size_t> ham_validation;  // reused across trials
  for (std::size_t trial = 0; trial < config_.resamples; ++trial) {
    // Draw T and V disjointly.
    std::vector<std::size_t> idx =
        rng.sample_without_replacement(pool.size(), needed);
    spambayes::Filter filter(filter_options_);
    for (std::size_t i = 0; i < config_.train_size; ++i) {
      const auto& item = pool.items[idx[i]];
      if (item.label == corpus::TrueLabel::spam) {
        filter.train_spam_ids(item.ids);
      } else {
        filter.train_ham_ids(item.ids);
      }
    }

    // Only the ham share of V contributes to the metric; batch-classify
    // exactly those messages (before and after the query is grafted on).
    ham_validation.clear();
    for (std::size_t i = config_.train_size; i < needed; ++i) {
      if (pool.items[idx[i]].label == corpus::TrueLabel::ham) {
        ham_validation.push_back(idx[i]);
      }
    }
    auto ham_as_ham = [&](const spambayes::Filter& f) {
      std::size_t correct = 0;
      f.classify_batch(
          ham_validation.size(),
          [&](std::size_t i) -> const spambayes::TokenIdList& {
            return pool.items[ham_validation[i]].ids;
          },
          [&](std::size_t, const spambayes::BatchScore& scored) {
            if (scored.verdict == spambayes::Verdict::ham) ++correct;
          });
      return correct;
    };

    const std::size_t before = ham_as_ham(filter);
    filter.train_spam_ids(query_ids);
    const std::size_t after = ham_as_ham(filter);
    out.per_trial.push_back(static_cast<double>(before) -
                            static_cast<double>(after));
  }

  double sum = 0;
  for (double d : out.per_trial) sum += d;
  out.mean_ham_as_ham_decrease =
      sum / static_cast<double>(out.per_trial.size());
  out.rejected = out.mean_ham_as_ham_decrease > config_.rejection_threshold;
  return out;
}

}  // namespace sbx::core
