#include "serve/user_model.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "spambayes/tokenizer.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

/// `ids` plus the ids of `novel`, spellings a lookup-only pass did not
/// find. Every count that training `copies` more would touch is checked
/// against `current` first, so the spellings still unknown are interned
/// only once the add cannot throw: a rejected Train leaves the
/// process-global interner as it was. A spelling another Train interned
/// since the lookup is found here and checked like the others.
spambayes::TokenIdSet with_novel_ids(
    const spambayes::TokenIdSet& ids, const std::vector<std::string>& novel,
    const spambayes::SparseTokenDatabase* current, bool as_spam,
    std::uint32_t copies) {
  spambayes::TokenInterner& interner = spambayes::global_interner();
  spambayes::TokenIdSet out = ids;
  std::vector<std::string_view> unseen;
  for (const std::string& spelling : novel) {
    if (const auto id = interner.find(spelling)) {
      out.push_back(*id);
    } else {
      unseen.push_back(spelling);
    }
  }
  if (current != nullptr) {
    for (spambayes::TokenId id : out) {
      const spambayes::TokenCounts c = current->counts(id);
      if (std::uint64_t{as_spam ? c.spam : c.ham} + copies >
          std::numeric_limits<std::uint32_t>::max()) {
        throw InvalidArgument(
            "train: copies would push the count of '" +
            std::string(interner.spelling(id)) + "' past 2^32 - 1");
      }
    }
  }
  spambayes::intern_dropped(unseen, out);
  return out;
}

}  // namespace

OverlaySnapshot UserModel::prepare(const spambayes::TokenIdSet& ids,
                                   const std::vector<std::string>& novel,
                                   bool as_spam, std::uint32_t copies,
                                   bool is_train, const BaseTotals& base,
                                   util::Mutex& mu) {
  (void)mu;  // capability parameter: consumed by SBX_REQUIRES(mu)
  const OverlaySnapshot current = snapshot();
  if (!is_train && !current) {
    throw InvalidArgument(
        "untrain: user has no trained messages (empty overlay)");
  }
  if (is_train) {
    // Bound the summed class totals, so the merged model is one a
    // TokenDatabase could hold (SparseTokenDatabase::add guards the
    // overlay's counts).
    const std::uint64_t total =
        std::uint64_t{as_spam ? base.spam : base.ham} +
        (current ? (as_spam ? current->spam_count() : current->ham_count())
                 : 0) +
        copies;
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw InvalidArgument(
          "train: copies would push the user's base + overlay class total "
          "past 2^32 - 1");
    }
  }
  auto next = current
                  ? std::make_shared<spambayes::SparseTokenDatabase>(*current)
                  : std::make_shared<spambayes::SparseTokenDatabase>();
  // SparseTokenDatabase throws InvalidArgument when an untrained message is
  // untrained; the unpublished copy is discarded and the published overlay
  // stays as it was.
  if (is_train) {
    const spambayes::TokenIdSet all_ids =
        novel.empty() ? spambayes::TokenIdSet{}
                      : with_novel_ids(ids, novel, current.get(), as_spam,
                                       copies);
    const spambayes::TokenIdSet& train_ids = novel.empty() ? ids : all_ids;
    if (as_spam) {
      next->train_spam_ids(train_ids, copies);
    } else {
      next->train_ham_ids(train_ids, copies);
    }
  } else {
    if (as_spam) {
      next->untrain_spam_ids(ids, copies);
    } else {
      next->untrain_ham_ids(ids, copies);
    }
  }
  return next;
}

void UserModel::publish(OverlaySnapshot next, util::Mutex& mu) {
  (void)mu;
  overlay_.store(std::move(next), std::memory_order_release);
  mutations_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace sbx::serve
