#include "spambayes/sparse_token_db.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
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
  for (TokenId id : ids) {
    TokenCounts& c = find_or_insert(id).counts;
    (spam ? c.spam : c.ham) += copies;
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
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out << "SBXDB 1\n" << nspam_ << ' ' << nham_ << '\n';
  for (const auto& [token, c] : entries) {
    out << c.spam << ' ' << c.ham << ' ' << token << '\n';
  }
}

SparseTokenDatabase SparseTokenDatabase::load(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "SBXDB" || version != 1) {
    throw ParseError("SparseTokenDatabase: bad header");
  }
  SparseTokenDatabase db;
  if (!(in >> db.nspam_ >> db.nham_)) {
    throw ParseError("SparseTokenDatabase: bad counts line");
  }
  std::string line;
  std::getline(in, line);  // consume rest of counts line
  TokenInterner& interner = global_interner();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TokenCounts c;
    if (!(ls >> c.spam >> c.ham)) {
      throw ParseError("SparseTokenDatabase: bad token line: " + line);
    }
    std::string token;
    std::getline(ls, token);
    if (!token.empty() && token.front() == ' ') token.erase(0, 1);
    if (token.empty()) {
      throw ParseError("SparseTokenDatabase: empty token in line: " + line);
    }
    if (c.spam == 0 && c.ham == 0) {
      throw ParseError("SparseTokenDatabase: zero-count token: " + token);
    }
    db.find_or_insert(interner.intern(token)).counts = c;
  }
  db.generation_ = TokenDatabase::next_generation();
  return db;
}

}  // namespace sbx::spambayes
