#include "core/focused_attack.h"

#include "email/mime.h"

namespace sbx::core {

spambayes::TokenSet attackable_body_words(const email::Message& msg,
                                          const spambayes::Tokenizer& tok) {
  spambayes::TokenList raw = tok.tokenize_text(email::extract_text(msg));
  spambayes::TokenList plain;
  plain.reserve(raw.size());
  for (auto& t : raw) {
    // Skip pseudo-tokens: the attacker writes words into a body, so only
    // tokens that re-tokenize to themselves are usable.
    if (t.rfind("skip:", 0) == 0 || t.rfind("url:", 0) == 0) continue;
    plain.push_back(std::move(t));
  }
  return spambayes::unique_tokens(plain);
}

}  // namespace sbx::core
