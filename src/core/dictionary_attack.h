// sbx/core/dictionary_attack.h
//
// The paper's Indiscriminate Causative Availability attack (§3.2): send
// spam-labeled emails containing an entire dictionary so that every word
// the victim's future ham might use acquires a spammy score. Three variants
// are evaluated in Figure 1:
//
//   * aspell  — the full formal dictionary (98,568 words);
//   * usenet  — the top-N (90,000) words of a Usenet-like ranked list,
//               which also covers colloquialisms that real ham uses;
//   * optimal — every token the victim's email distribution can produce
//               (§3.4: the information-theoretic best indiscriminate
//               attack; infeasible in practice, simulated here exactly
//               because we own the generator).
//
// Per the contamination assumption (§2.2) attack emails carry an *empty*
// header and are always trained as spam. All attack emails of one variant
// are identical, which is why the experiment harness trains them as
// batched copies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/attack.h"
#include "core/taxonomy.h"
#include "corpus/generator.h"
#include "corpus/vocabulary.h"
#include "email/message.h"

namespace sbx::core {

/// One dictionary-flavoured poisoning attack.
class DictionaryAttack {
 public:
  /// Builds an attack from an explicit word list. `name` labels experiment
  /// output (e.g. "aspell").
  DictionaryAttack(std::string name, std::vector<std::string> dictionary);

  /// Full Aspell-like dictionary attack.
  static DictionaryAttack aspell(const corpus::Lexicons& lexicons);

  /// Top-`top_n` Usenet-ranked words (defaults to the paper's 90,000).
  static DictionaryAttack usenet(const corpus::Lexicons& lexicons,
                                 std::size_t top_n = 90'000);

  /// Truncated Aspell attack (first `top_n` words) for ablations.
  static DictionaryAttack aspell_truncated(const corpus::Lexicons& lexicons,
                                           std::size_t top_n);

  /// The optimal indiscriminate attack: the generator's entire emittable
  /// vocabulary.
  static DictionaryAttack optimal(const corpus::TrecLikeGenerator& generator);

  const std::string& name() const { return name_; }
  std::size_t dictionary_size() const { return dictionary_size_; }

  /// The (single, canonical) attack email: empty header, body carrying the
  /// whole dictionary. The attacker sends `count` copies of this message.
  const email::Message& attack_message() const { return message_; }

  /// The attack as the Causative drivers consume it: attack_message(),
  /// trained as spam, displayed under name(), no trigger.
  CanonicalPoison canonical_poison() const;

  /// Causative / Availability / Indiscriminate.
  static AttackProperties properties() {
    return {Influence::causative, Violation::availability,
            Specificity::indiscriminate};
  }

 private:
  std::string name_;
  std::size_t dictionary_size_;
  email::Message message_;
};

}  // namespace sbx::core
