#include "eval/experiments.h"

#include <limits>
#include <string>

#include "util/error.h"

namespace sbx::eval {

std::uint32_t checked_copies(std::uint64_t count) {
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument("poison copy count " + std::to_string(count) +
                          " exceeds the model's 2^32 - 1 message counts");
  }
  return static_cast<std::uint32_t>(count);
}

void train_on_indices(spambayes::Filter& filter,
                      const corpus::TokenizedDataset& data,
                      const std::vector<std::size_t>& indices) {
  for (std::size_t i : indices) {
    const auto& item = data.items[i];
    if (item.label == corpus::TrueLabel::spam) {
      filter.train_spam_ids(item.ids);
    } else {
      filter.train_ham_ids(item.ids);
    }
  }
}

ConfusionMatrix classify_indices(const spambayes::Filter& filter,
                                 const corpus::TokenizedDataset& data,
                                 const std::vector<std::size_t>& indices) {
  ConfusionMatrix matrix;
  filter.classify_batch(
      indices.size(),
      [&](std::size_t i) -> const spambayes::TokenIdList& {
        return data.items[indices[i]].ids;
      },
      [&](std::size_t i, const spambayes::BatchScore& scored) {
        matrix.add(data.items[indices[i]].label, scored.verdict);
      });
  return matrix;
}

std::size_t raw_token_count(const corpus::Dataset& data,
                            const spambayes::Tokenizer& tokenizer) {
  // Counting needs no ids, so the pass only looks tokens up and leaves the
  // interner as it found it.
  std::size_t total = 0;
  for (const auto& item : data.items) {
    std::size_t emitted = 0;
    tokenizer.tokenize_id_set(item.message, spambayes::IdMode::kLookupOnly,
                              &emitted);
    total += emitted;
  }
  return total;
}

}  // namespace sbx::eval
