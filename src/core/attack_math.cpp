#include "core/attack_math.h"

#include <cmath>

#include "util/error.h"

namespace sbx::core {

std::size_t attack_message_count(std::size_t clean_messages,
                                 double attack_fraction) {
  if (attack_fraction < 0.0 || attack_fraction >= 1.0) {
    throw InvalidArgument("attack_message_count: fraction must be in [0,1)");
  }
  double a = static_cast<double>(clean_messages) * attack_fraction /
             (1.0 - attack_fraction);
  return static_cast<std::size_t>(std::llround(a));
}

double score_under_attack(const spambayes::Classifier& classifier,
                          const spambayes::TokenDatabase& db,
                          const spambayes::TokenIdSet& message_ids,
                          const spambayes::TokenIdSet& attack_ids,
                          std::uint32_t copies) {
  spambayes::TokenDatabase copy = db;
  if (copies > 0 && !attack_ids.empty()) {
    copy.train_spam_ids(attack_ids, copies);
  }
  return classifier.score_ids(copy, message_ids).score;
}

}  // namespace sbx::core
