// sbx/core/informed_attack.h
//
// The optimal *constrained* attack of §3.4, which the paper sketches and
// leaves to future work:
//
//   "The attacker's knowledge usually falls between these extremes. For
//    example, the attacker may use information about the distribution of
//    words in English text to make the attack more efficient ... From
//    this it should be possible to derive an optimal constrained attack,
//    but we leave this to future work."
//
// Derivation implemented here: the attacker knows a distribution p over
// the victim's ham words and may put at most `budget` words in the attack
// email. By §3.4's two observations — token scores of distinct words do
// not interact, and I(E) is monotonically non-decreasing in each f(w) —
// the expected-score gain of including word w is monotone in the
// probability that w appears in the victim's next message, which for any
// email-length distribution is itself monotone in p_w. Hence the optimal
// budget-constrained payload is simply the `budget` most probable words.
// (The Usenet-top-N attack of §3.2 is the empirical approximation of
// exactly this rule; `sbx_experiments figure ablation_informed` compares
// them.)
#pragma once

#include <cstddef>
#include <vector>

#include "core/dictionary_attack.h"
#include "corpus/generator.h"

namespace sbx::core {

/// Builds the optimal budget-constrained dictionary attack from a known
/// word distribution: the `budget` highest-probability words. Ties are
/// broken lexicographically for determinism. Throws InvalidArgument if
/// budget is 0 or exceeds the distribution's support.
DictionaryAttack make_informed_attack(
    std::vector<corpus::TrecLikeGenerator::WordProbability> distribution,
    std::size_t budget);

}  // namespace sbx::core
