#include "spambayes/sparse_token_db.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "util/error.h"

namespace sbx::spambayes {

void SparseTokenDatabase::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  shift_ = 32 - static_cast<std::uint32_t>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (is_empty(s)) continue;
    std::size_t i = home(s.id);
    while (!is_empty(slots_[i])) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

SparseTokenDatabase::Slot& SparseTokenDatabase::find_or_insert(TokenId id) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    rehash(std::max<std::size_t>(8, slots_.size() * 2));
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (is_empty(s)) {
      s.id = id;
      ++size_;
      return s;
    }
    if (s.id == id) return s;
  }
}

std::size_t SparseTokenDatabase::index_of(TokenId id) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (is_empty(slots_[i]) || slots_[i].id != id) i = (i + 1) & mask;
  return i;
}

void SparseTokenDatabase::erase_at(std::size_t hole) {
  // Backward-shift deletion: walk the probe chain after the hole and move
  // back every entry whose home lies cyclically at or before the hole, so
  // each remaining entry stays reachable from its home without tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; !is_empty(slots_[i]);
       i = (i + 1) & mask) {
    const std::size_t from_home = (i - home(slots_[i].id)) & mask;
    if (((i - hole) & mask) <= from_home) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void SparseTokenDatabase::add(const TokenIdSet& ids, std::uint32_t copies,
                              bool spam) {
  if (copies == 0) return;
  std::uint32_t& total = spam ? nspam_ : nham_;
  if (copies > std::numeric_limits<std::uint32_t>::max() - total) {
    throw InvalidArgument(
        "SparseTokenDatabase: training would overflow the uint32 class "
        "total");
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    TokenCounts& c = find_or_insert(ids[k]).counts;
    std::uint32_t& n = spam ? c.spam : c.ham;
    if ((n += copies) >= copies) continue;
    // Wrapped (see TokenDatabase::add). Undo this increment first, as the
    // slot may read as empty, then the earlier ones, and throw.
    n -= copies;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = index_of(ids[j]);
      (spam ? slots_[i].counts.spam : slots_[i].counts.ham) -= copies;
      if (is_empty(slots_[i])) erase_at(i);
    }
    throw InvalidArgument(
        "SparseTokenDatabase: training would overflow the uint32 count of '" +
        std::string(global_interner().spelling(ids[k])) + "'");
  }
  total += copies;
  generation_ = TokenDatabase::next_generation();
}

void SparseTokenDatabase::remove(const TokenIdSet& ids, std::uint32_t copies,
                                 bool spam) {
  if (copies == 0) return;
  std::uint32_t& total = spam ? nspam_ : nham_;
  if (total < copies) {
    throw InvalidArgument(
        "SparseTokenDatabase: untraining more emails than known");
  }
  // Validate everything before mutating anything, for the same reason
  // TokenDatabase does: equal generations must prove equal contents.
  for (TokenId id : ids) {
    const TokenCounts c = counts(id);
    if ((spam ? c.spam : c.ham) < copies) {
      throw InvalidArgument(
          "SparseTokenDatabase: untraining unknown token '" +
          std::string(global_interner().spelling(id)) + "'");
    }
  }
  for (TokenId id : ids) {
    const std::size_t i = index_of(id);
    TokenCounts& c = slots_[i].counts;
    (spam ? c.spam : c.ham) -= copies;
    if (is_empty(slots_[i])) erase_at(i);
  }
  total -= copies;
  generation_ = TokenDatabase::next_generation();
}

void SparseTokenDatabase::train_spam_ids(const TokenIdSet& ids,
                                         std::uint32_t copies) {
  add(ids, copies, /*spam=*/true);
}

void SparseTokenDatabase::train_ham_ids(const TokenIdSet& ids,
                                        std::uint32_t copies) {
  add(ids, copies, /*spam=*/false);
}

void SparseTokenDatabase::untrain_spam_ids(const TokenIdSet& ids,
                                           std::uint32_t copies) {
  remove(ids, copies, /*spam=*/true);
}

void SparseTokenDatabase::untrain_ham_ids(const TokenIdSet& ids,
                                          std::uint32_t copies) {
  remove(ids, copies, /*spam=*/false);
}

void SparseTokenDatabase::save(std::ostream& out) const {
  const TokenInterner& interner = global_interner();
  std::vector<std::pair<std::string_view, TokenCounts>> entries;
  entries.reserve(size_);
  for (const Slot& s : slots_) {
    if (!is_empty(s)) entries.emplace_back(interner.spelling(s.id), s.counts);
  }
  detail::write_sbxdb(out, nspam_, nham_, std::move(entries));
}

SparseTokenDatabase SparseTokenDatabase::load(std::istream& in) {
  SparseTokenDatabase db;
  detail::read_sbxdb(in, "SparseTokenDatabase", db.nspam_, db.nham_,
                     [&db](TokenId id, TokenCounts c) {
                       db.find_or_insert(id).counts = c;
                     });
  db.generation_ = TokenDatabase::next_generation();
  return db;
}

}  // namespace sbx::spambayes
