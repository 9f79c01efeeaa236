#include "spambayes/token_db.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "util/error.h"

namespace sbx::spambayes {

std::uint64_t TokenDatabase::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void TokenDatabase::add(const TokenIdSet& ids, std::uint32_t copies,
                        bool spam) {
  if (copies == 0) return;
  if (copies > std::numeric_limits<std::uint32_t>::max() -
                   (spam ? nspam_ : nham_)) {
    throw InvalidArgument(
        "TokenDatabase: training would overflow the uint32 class total");
  }
  // TokenIdSet is sorted, so one resize covers the whole set; the in-loop
  // guard keeps an unsorted caller (the typedefs cannot forbid one) at
  // worst slow, never out of bounds.
  if (!ids.empty() && ids.back() >= counts_.size()) {
    counts_.resize(ids.back() + 1);
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] >= counts_.size()) counts_.resize(ids[k] + 1);
    TokenCounts& c = counts_[ids[k]];
    if (c.spam == 0 && c.ham == 0) ++vocab_;
    std::uint32_t& n = spam ? c.spam : c.ham;
    if ((n += copies) >= copies) continue;
    // Wrapped: a count can exceed its class total (untrain checks only the
    // tokens it lists). Undo this and the earlier increments, and throw.
    // Cheaper than a validation pass, which costs a second load per token.
    n -= copies;
    for (std::size_t j = 0; j < k; ++j) {
      TokenCounts& u = counts_[ids[j]];
      (spam ? u.spam : u.ham) -= copies;
      if (u.spam == 0 && u.ham == 0) --vocab_;
    }
    throw InvalidArgument(
        "TokenDatabase: training would overflow the uint32 count of '" +
        std::string(global_interner().spelling(ids[k])) + "'");
  }
  (spam ? nspam_ : nham_) += copies;
  generation_ = next_generation();
}

void TokenDatabase::remove(const TokenIdSet& ids, std::uint32_t copies,
                           bool spam) {
  if (copies == 0) return;
  std::uint32_t& total = spam ? nspam_ : nham_;
  if (total < copies) {
    throw InvalidArgument("TokenDatabase: untraining more emails than known");
  }
  // Validate everything before mutating anything: a partial decrement that
  // then threw would change the contents without moving generation_,
  // breaking the "equal generation proves equal contents" invariant
  // ScoreEngine's memoization rests on.
  for (TokenId id : ids) {
    const std::uint32_t have =
        id < counts_.size() ? (spam ? counts_[id].spam : counts_[id].ham) : 0;
    if (have < copies) {
      throw InvalidArgument(
          "TokenDatabase: untraining unknown token '" +
          std::string(global_interner().spelling(id)) + "'");
    }
  }
  for (TokenId id : ids) {
    TokenCounts& c = counts_[id];
    (spam ? c.spam : c.ham) -= copies;
    if (c.spam == 0 && c.ham == 0) --vocab_;
  }
  total -= copies;
  generation_ = next_generation();
}

void TokenDatabase::train_spam_ids(const TokenIdSet& ids,
                                   std::uint32_t copies) {
  add(ids, copies, /*spam=*/true);
}

void TokenDatabase::train_ham_ids(const TokenIdSet& ids,
                                  std::uint32_t copies) {
  add(ids, copies, /*spam=*/false);
}

void TokenDatabase::untrain_spam_ids(const TokenIdSet& ids,
                                     std::uint32_t copies) {
  remove(ids, copies, /*spam=*/true);
}

void TokenDatabase::untrain_ham_ids(const TokenIdSet& ids,
                                    std::uint32_t copies) {
  remove(ids, copies, /*spam=*/false);
}

TokenCounts TokenDatabase::counts(std::string_view token) const {
  const auto id = global_interner().find(token);
  return id ? counts(*id) : TokenCounts{};
}

void TokenDatabase::merge(const TokenDatabase& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size());
  }
  for (TokenId id = 0; id < other.counts_.size(); ++id) {
    const TokenCounts& theirs = other.counts_[id];
    if (theirs.spam == 0 && theirs.ham == 0) continue;
    TokenCounts& mine = counts_[id];
    if (mine.spam == 0 && mine.ham == 0) ++vocab_;
    mine.spam += theirs.spam;
    mine.ham += theirs.ham;
  }
  nspam_ += other.nspam_;
  nham_ += other.nham_;
  generation_ = next_generation();
}

std::vector<std::pair<std::string, TokenCounts>> TokenDatabase::tokens()
    const {
  const TokenInterner& interner = global_interner();
  std::vector<std::pair<std::string, TokenCounts>> out;
  out.reserve(vocab_);
  for (TokenId id = 0; id < counts_.size(); ++id) {
    const TokenCounts& c = counts_[id];
    if (c.spam == 0 && c.ham == 0) continue;
    out.emplace_back(std::string(interner.spelling(id)), c);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void TokenDatabase::save(std::ostream& out) const {
  const TokenInterner& interner = global_interner();
  std::vector<std::pair<std::string_view, TokenCounts>> entries;
  entries.reserve(vocab_);
  for (TokenId id = 0; id < counts_.size(); ++id) {
    const TokenCounts& c = counts_[id];
    if (c.spam == 0 && c.ham == 0) continue;
    entries.emplace_back(interner.spelling(id), c);
  }
  detail::write_sbxdb(out, nspam_, nham_, std::move(entries));
}

TokenDatabase TokenDatabase::load(std::istream& in) {
  TokenDatabase db;
  detail::read_sbxdb(in, "TokenDatabase", db.nspam_, db.nham_,
                     [&db](TokenId id, TokenCounts c) {
                       if (id >= db.counts_.size()) db.counts_.resize(id + 1);
                       TokenCounts& mine = db.counts_[id];
                       if (mine.spam == 0 && mine.ham == 0) ++db.vocab_;
                       mine = c;
                     });
  db.generation_ = next_generation();
  return db;
}

void TokenDatabase::save_file(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw IoError("TokenDatabase: cannot open for write: " + path);
  save(f);
  if (!f) throw IoError("TokenDatabase: write failed: " + path);
}

TokenDatabase TokenDatabase::load_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw IoError("TokenDatabase: cannot open: " + path);
  return load(f);
}

namespace detail {

void write_sbxdb(
    std::ostream& out, std::uint32_t nspam, std::uint32_t nham,
    std::vector<std::pair<std::string_view, TokenCounts>> entries) {
  // Spelling order: stable across runs regardless of id assignment, which
  // also makes save -> load -> save a byte-identical round trip.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out << "SBXDB 1\n" << nspam << ' ' << nham << '\n';
  for (const auto& [token, c] : entries) {
    out << c.spam << ' ' << c.ham << ' ' << token << '\n';
  }
}

void read_sbxdb(std::istream& in, const char* type, std::uint32_t& nspam,
                std::uint32_t& nham,
                const std::function<void(TokenId, TokenCounts)>& on_entry) {
  const std::string prefix = std::string(type) + ": ";
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "SBXDB" || version != 1) {
    throw ParseError(prefix + "bad header");
  }
  if (!(in >> nspam >> nham)) throw ParseError(prefix + "bad counts line");
  std::string line;
  std::getline(in, line);  // consume rest of counts line
  TokenInterner& interner = global_interner();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    TokenCounts c;
    if (!(ls >> c.spam >> c.ham)) {
      throw ParseError(prefix + "bad token line: " + line);
    }
    std::string token;
    std::getline(ls, token);
    if (!token.empty() && token.front() == ' ') token.erase(0, 1);
    if (token.empty()) {
      throw ParseError(prefix + "empty token in line: " + line);
    }
    if (c.spam == 0 && c.ham == 0) {
      throw ParseError(prefix + "zero-count token: " + token);
    }
    on_entry(interner.intern(token), c);
  }
}

}  // namespace detail
}  // namespace sbx::spambayes
