// The string -> id bridge for test fixtures. The model takes interned
// TokenIdSets only; tests spell their tokens out and intern them here.
#pragma once

#include <algorithm>

#include "spambayes/interner.h"
#include "spambayes/tokenizer.h"

namespace sbx::test_support {

/// Interns an already-deduplicated string set into an ascending id set.
inline spambayes::TokenIdSet intern_tokens(const spambayes::TokenSet& tokens) {
  spambayes::TokenIdSet ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) {
    ids.push_back(spambayes::global_interner().intern(t));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The spellings of `ids`, in id-list order.
inline spambayes::TokenSet spellings(const spambayes::TokenIdList& ids) {
  spambayes::TokenSet out;
  for (spambayes::TokenId id : ids) {
    out.emplace_back(spambayes::global_interner().spelling(id));
  }
  return out;
}

}  // namespace sbx::test_support
