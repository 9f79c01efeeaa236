// sbx/core/attack_math.h
//
// Shared attack arithmetic and the expected-score analysis of §3.4.
#pragma once

#include <cstddef>

#include "spambayes/classifier.h"
#include "spambayes/token_db.h"

namespace sbx::core {

/// Number of attack messages needed for the attack to make up fraction
/// `attack_fraction` of the *final* (poisoned) training set that already
/// holds `clean_messages` messages:
///
///   a / (clean + a) = fraction  =>  a = clean * fraction / (1 - fraction)
///
/// rounded to nearest. This matches the paper's accounting: 1% of a
/// 10,000-message inbox is quoted as 101 attack emails and 2% as 204
/// (§4.2). Throws InvalidArgument unless 0 <= fraction < 1.
std::size_t attack_message_count(std::size_t clean_messages,
                                 double attack_fraction);

/// §3.4's optimality analysis, exposed for tests and ablations: scores a
/// message against `db` augmented with `copies` spam-trained attack
/// messages carrying exactly `attack_ids`. Because token scores of
/// distinct words do not interact when the message count is fixed, and
/// I(E) is monotonically non-decreasing in each f(w), *adding a word to
/// the attack payload never lowers* the resulting score of any message
/// containing that word — the fact that makes the full dictionary the
/// optimal indiscriminate payload. Property tests verify this via the
/// helper. `db` is copied; the original is untouched.
double score_under_attack(const spambayes::Classifier& classifier,
                          const spambayes::TokenDatabase& db,
                          const spambayes::TokenIdSet& message_ids,
                          const spambayes::TokenIdSet& attack_ids,
                          std::uint32_t copies);

}  // namespace sbx::core
