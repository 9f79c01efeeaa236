#include "core/dictionary_attack.h"

#include "email/builder.h"
#include "util/error.h"

namespace sbx::core {

DictionaryAttack::DictionaryAttack(std::string name,
                                   std::vector<std::string> dictionary)
    : name_(std::move(name)), dictionary_size_(dictionary.size()) {
  if (dictionary.empty()) {
    throw InvalidArgument("DictionaryAttack: empty dictionary");
  }
  // Empty header block per the contamination assumption: attackers control
  // bodies, not headers (§2.2); §4.1 implements this as an empty header.
  message_ = email::MessageBuilder().body_from_words(dictionary).build();
}

CanonicalPoison DictionaryAttack::canonical_poison() const {
  CanonicalPoison poison;
  poison.message = message_;
  poison.train_as = corpus::TrueLabel::spam;
  poison.display_name = name_;
  poison.payload_size = dictionary_size_;
  return poison;
}

DictionaryAttack DictionaryAttack::aspell(const corpus::Lexicons& lexicons) {
  return DictionaryAttack("aspell", lexicons.aspell());
}

DictionaryAttack DictionaryAttack::usenet(const corpus::Lexicons& lexicons,
                                          std::size_t top_n) {
  const auto& ranked = lexicons.usenet();
  if (top_n == 0 || top_n > ranked.size()) {
    throw InvalidArgument("DictionaryAttack::usenet: top_n out of range");
  }
  std::vector<std::string> words(ranked.begin(),
                                 ranked.begin() +
                                     static_cast<std::ptrdiff_t>(top_n));
  return DictionaryAttack("usenet-" + std::to_string(top_n),
                          std::move(words));
}

DictionaryAttack DictionaryAttack::aspell_truncated(
    const corpus::Lexicons& lexicons, std::size_t top_n) {
  const auto& words = lexicons.aspell();
  if (top_n == 0 || top_n > words.size()) {
    throw InvalidArgument(
        "DictionaryAttack::aspell_truncated: top_n out of range");
  }
  std::vector<std::string> prefix(words.begin(),
                                  words.begin() +
                                      static_cast<std::ptrdiff_t>(top_n));
  return DictionaryAttack("aspell-" + std::to_string(top_n),
                          std::move(prefix));
}

DictionaryAttack DictionaryAttack::optimal(
    const corpus::TrecLikeGenerator& generator) {
  return DictionaryAttack("optimal", generator.full_vocabulary());
}

}  // namespace sbx::core
