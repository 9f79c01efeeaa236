// sbx/spambayes/sparse_token_db.h
//
// A per-user delta of SpamBayes training counts whose memory and copy cost
// scale with the entries this database itself trained, not with the size
// of the process-global interner.
//
// TokenDatabase indexes counts by TokenId, so a copy is as large as the
// highest id ever trained, and in a long-running daemon ids grow with
// everyone's traffic. That is the right trade for the experiments (dense
// loads, memcpy snapshots of one filter) but the wrong one for serving,
// where every Train copies a user's overlay (copy-on-write) and most users
// have seen a tiny share of the vocabulary. SparseTokenDatabase keeps the
// same counts in a flat open-addressing table keyed by TokenId:
//
//  * capacity is zero or a power of two, load stays at or below 3/4, and
//    collisions probe linearly from a Fibonacci hash of the id;
//  * an entry whose counts reach zero is removed by backward-shift
//    deletion, so there are no tombstones and train/untrain churn never
//    grows the table;
//  * a copy is one flat copy of `capacity` 12-byte slots, with capacity
//    between 4/3 and 8/3 of the live entries once the table has grown.
//
// A sorted (id, counts) vector was measured as the alternative: its
// lookups cost 11-23 us per 150-token message against 5.6 us for this
// table (2.0 us for TokenDatabase's dense index), and lookups are the
// overlay classify path.
//
// The observable contract matches TokenDatabase's where both have the
// operation: exact untrain that validates before it mutates, generations
// drawn from TokenDatabase's process-global counter (so no two states of
// either type share one), and the SBXDB 1 save()/load() text format byte
// for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "spambayes/interner.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes {

class SparseTokenDatabase {
 public:
  SparseTokenDatabase() = default;

  /// Records `copies` spam (ham) emails, each containing exactly the tokens
  /// in `ids` (a deduplicated id set). Throws InvalidArgument, changing
  /// nothing, when the class total would exceed UINT32_MAX (a per-token
  /// count never exceeds its class total, so no token count can wrap).
  void train_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void train_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Exactly reverses a train call with the same arguments. Throws
  /// InvalidArgument, changing neither contents nor generation(), when any
  /// count would go negative (the message was never trained here).
  void untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies = 1);
  void untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies = 1);

  /// Number of spam / ham training emails (NS, NH).
  std::uint32_t spam_count() const { return nspam_; }
  std::uint32_t ham_count() const { return nham_; }

  /// Counts for one interned token; zeros if it has none here.
  TokenCounts counts(TokenId id) const {
    if (size_ == 0) return {};
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (is_empty(s)) return {};
      if (s.id == id) return s.counts;
    }
  }

  /// Number of distinct tokens with nonzero counts.
  std::size_t vocabulary_size() const { return size_; }

  /// Heap plus inline bytes this database holds.
  std::size_t bytes() const {
    return sizeof(*this) + slots_.capacity() * sizeof(Slot);
  }

  /// Cache-invalidation stamp with TokenDatabase::generation()'s contract:
  /// every mutation draws a fresh value from the same process-global
  /// counter, copies keep the stamp, and failed or no-op (copies == 0)
  /// calls leave it unchanged.
  std::uint64_t generation() const { return generation_; }

  /// TokenDatabase::save()'s SBXDB 1 format, byte for byte: the class
  /// totals, then one line per nonzero entry in spelling order.
  void save(std::ostream& out) const;

  /// Parses the save() format (either type's). Throws ParseError on
  /// malformed input.
  static SparseTokenDatabase load(std::istream& in);

 private:
  /// One table slot; a slot with zero counts is empty.
  struct Slot {
    TokenId id = 0;
    TokenCounts counts;
  };

  static bool is_empty(const Slot& s) {
    return s.counts.spam == 0 && s.counts.ham == 0;
  }

  /// First probe position of `id`: Fibonacci hashing spreads the dense,
  /// sequential ids the interner hands out over the high bits.
  std::size_t home(TokenId id) const {
    return static_cast<std::uint32_t>(id * 0x9E3779B9u) >> shift_;
  }

  void add(const TokenIdSet& ids, std::uint32_t copies, bool spam);
  void remove(const TokenIdSet& ids, std::uint32_t copies, bool spam);

  /// The slot holding `id`, inserted with zero counts if absent (growing
  /// first when that would pass 3/4 load). The caller makes it nonzero.
  Slot& find_or_insert(TokenId id);
  /// Index of the live slot holding `id`; the caller knows it is present.
  std::size_t index_of(TokenId id) const;
  /// Empties slot `hole` and shifts its probe chain back over it.
  void erase_at(std::size_t hole);
  void rehash(std::size_t capacity);

  std::vector<Slot> slots_;   // size() is the capacity: 0 or a power of two
  std::size_t size_ = 0;      // live (nonzero) slots
  std::uint32_t shift_ = 32;  // 32 - log2(capacity)
  std::uint32_t nspam_ = 0;
  std::uint32_t nham_ = 0;
  std::uint64_t generation_ = TokenDatabase::next_generation();
};

}  // namespace sbx::spambayes
