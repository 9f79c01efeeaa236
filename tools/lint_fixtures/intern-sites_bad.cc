// Fixture: interning outside the tokenizer, the interner and the loader.
#include <string>
#include <vector>

#include "spambayes/tokenizer.h"

using namespace sbx::spambayes;

TokenIdSet bad(const TokenSet& tokens, TokenInterner* interner) {
  TokenIdSet ids;
  for (const auto& t : tokens) ids.push_back(global_interner().intern(t));
  ids.push_back(interner->intern("x"));
  return intern_tokens(tokens);
}
