// sbx/spambayes/interner.h
//
// Token interning: a process-wide string -> TokenId table with arena-backed
// storage. Every distinct token spelling is stored exactly once and mapped
// to a dense uint32 id; the hot paths (TokenDatabase train/untrain,
// ScoreEngine) then operate on flat id arrays with no string hashing and
// no per-token allocation. The id -> spelling direction is a lock-free
// chunked lookup, so reporting and the scorer's deterministic tie-break
// (compare spellings only on an exact score-distance tie) stay cheap.
//
// Concurrency contract:
//  * intern() is safe from any thread. The warm path (token already
//    interned) is entirely lock-free: one probe of an open-addressing table
//    whose slots publish ids with release semantics. Only first-time
//    insertions and table growth take the writer mutex; superseded tables
//    are retired, never freed, so stale readers stay safe (the table is
//    append-only — no deletions, ever).
//  * find() never takes a lock. A token whose intern() call happens-before
//    the find() call is always found: that intern() placed the id in the
//    table current at the time, and every table published later is built
//    from all ids interned before it. A token whose interning races the
//    find() (no happens-before edge either way) may be reported absent.
//    Callers that pair a lookup with state published by another thread
//    (the serving layer's overlays) acquire that state first, so every id
//    it references was interned before the lookup starts.
//  * spelling(id) is lock-free and wait-free for any id previously returned
//    by intern(): ids are published with release semantics into chunks that
//    never move once allocated.
//  * ids are assigned in first-intern order. Nothing in the system may
//    depend on the numeric order of ids (it varies with thread scheduling);
//    determinism always comes from comparing spellings.
//
// Hashing: intern() and find() also take a precomputed hash, which must be
// TokenInterner::hash(token). The one-pass tokenizer hashes each spelling
// once and uses that value both for its per-message dedup and here.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace sbx::spambayes {

/// Dense token identifier assigned by a TokenInterner.
using TokenId = std::uint32_t;

/// A list of token ids in occurrence order (may contain duplicates).
using TokenIdList = std::vector<TokenId>;

/// A deduplicated, ascending-sorted id set — the one message
/// representation the model trains, untrains and classifies on.
using TokenIdSet = std::vector<TokenId>;

/// Append-only string interning table. See the header comment for the
/// concurrency contract.
class TokenInterner {
 public:
  TokenInterner();
  ~TokenInterner();
  TokenInterner(const TokenInterner&) = delete;
  TokenInterner& operator=(const TokenInterner&) = delete;

  /// The hash intern() and find() expect: 8-byte words folded through a
  /// 64x64->128-bit multiply, then one final fold. Inline so the tokenizer
  /// hashes each spelling without a call.
  static std::size_t hash(std::string_view token) {
    const char* p = token.data();
    std::size_t n = token.size();
    std::uint64_t h = fold(n ^ kHashSeed, kHashMul);
    for (; n >= 8; n -= 8, p += 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      h = fold(h ^ word, kHashMul);
    }
    if (n > 0) {
      std::uint64_t word = 0;
      for (std::size_t i = 0; i < n; ++i) {
        word |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
                << (8 * i);
      }
      h = fold(h ^ word, kHashMul);
    }
    return static_cast<std::size_t>(fold(h, kHashSeed));
  }

  /// Returns the id for `token`, inserting it on first sight. The spelling
  /// is copied into the interner's arena; the caller's buffer may die.
  TokenId intern(std::string_view token) SBX_EXCLUDES(write_mutex_) {
    return intern(token, hash(token));
  }
  /// Same, with `token_hash` == hash(token) already computed.
  TokenId intern(std::string_view token, std::size_t token_hash)
      SBX_EXCLUDES(write_mutex_);

  /// Returns the id for `token` if it was ever interned; does not insert
  /// and never blocks (see the header comment for what it is guaranteed
  /// to see).
  std::optional<TokenId> find(std::string_view token) const {
    return find(token, hash(token));
  }
  /// Same, with `token_hash` == hash(token) already computed.
  std::optional<TokenId> find(std::string_view token,
                              std::size_t token_hash) const;

  /// Hints that a lookup of a token hashing to `token_hash` is coming, so
  /// a batch of independent lookups overlaps its cache misses. A probe
  /// touches three lines, each address read from the previous one: the
  /// home slot, the id's spelling entry, the spelling bytes. Level 0
  /// prefetches the slot; level 1 reads it and prefetches the entry; level
  /// 2 reads the entry and prefetches the bytes. Issue the levels in order,
  /// a few lookups apart. Reads only published state; no effect on results.
  void prefetch(std::size_t token_hash, int level) const {
    const Table* table = table_.load(std::memory_order_acquire);
    const auto& slot = table->slots[token_hash & table->mask];
    if (level == 0) {
      __builtin_prefetch(&slot);
      return;
    }
    const std::uint32_t value = slot.load(std::memory_order_acquire);
    if (value == 0) return;
    const TokenId id = value - 1;
    const Chunk* chunk =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    const std::string_view* entry = &chunk->entries[id & (kChunkSize - 1)];
    if (level == 1) {
      __builtin_prefetch(entry);
    } else {
      __builtin_prefetch(entry->data());
    }
  }

  /// The spelling of an interned id. Lock-free; the returned view lives as
  /// long as the interner. Throws InvalidArgument for ids never returned by
  /// intern().
  std::string_view spelling(TokenId id) const;

  /// Number of distinct tokens interned so far.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Total arena bytes reserved for spellings (capacity, not live bytes).
  std::size_t arena_bytes() const SBX_EXCLUDES(write_mutex_);

 private:
  // id -> spelling chunks: 4096 entries each, up to 16.7M ids. Chunks are
  // allocated on demand and never move, which is what makes spelling()
  // lock-free.
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 12;
  static constexpr std::size_t kArenaBlockBytes = std::size_t{1} << 16;
  static constexpr std::size_t kInitialTableCapacity = 1024;
  static constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t kHashMul = 0xe7037ed1a0b428dbULL;

  /// Multiplies into 128 bits and xors the halves together.
  static std::uint64_t fold(std::uint64_t a, std::uint64_t b) {
    // GCC/Clang extension; __extension__ silences -Wpedantic.
    __extension__ typedef unsigned __int128 Wide;
    const Wide product = static_cast<Wide>(a) * b;
    return static_cast<std::uint64_t>(product) ^
           static_cast<std::uint64_t>(product >> 64);
  }

  struct Chunk {
    std::array<std::string_view, kChunkSize> entries;
  };

  /// Open-addressing hash table over interned ids. Slots hold id + 1 (0 =
  /// empty) and are published with release stores; lookups linear-probe and
  /// compare spellings. Append-only: capacity doubles by building a new
  /// table and atomically swapping the pointer; old tables are retired.
  struct Table {
    explicit Table(std::size_t capacity_in);
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
  };

  /// Spelling lookup without the public bounds check — valid for any id
  /// read from a published table slot.
  std::string_view spelling_unchecked(TokenId id) const {
    const Chunk* chunk =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk->entries[id & (kChunkSize - 1)];
  }

  /// Lock-free probe of `table`; nullopt when `token` has no slot there.
  std::optional<TokenId> probe(const Table& table, std::size_t token_hash,
                               std::string_view token) const;

  /// Inserts an id into `table` at its hash position. Static and
  /// annotation-free on purpose: it also runs against not-yet-published
  /// grow tables that no thread can see.
  static void place(Table& table, std::size_t token_hash, TokenId id);

  /// Copies `token` into the arena (writer mutex held — compiler-checked).
  std::string_view store(std::string_view token) SBX_REQUIRES(write_mutex_);

  // Lock-free read side: the current table pointer, the id -> spelling
  // chunks and the published size are atomics with release/acquire
  // pairing; they are deliberately NOT guarded by the writer mutex.
  std::atomic<Table*> table_;
  mutable util::Mutex write_mutex_{util::LockRank::kLeaf,
                                   "TokenInterner::write_mutex_"};
  // Writer-side growth state: every table ever built (retired tables stay
  // readable), the spelling arena and its fill cursor.
  std::vector<std::unique_ptr<Table>> tables_ SBX_GUARDED_BY(write_mutex_);
  std::vector<std::unique_ptr<char[]>> arena_ SBX_GUARDED_BY(write_mutex_);
  std::size_t arena_block_used_ SBX_GUARDED_BY(write_mutex_) = 0;
  std::size_t arena_block_size_ SBX_GUARDED_BY(write_mutex_) = 0;
  std::size_t arena_total_ SBX_GUARDED_BY(write_mutex_) = 0;
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<std::uint32_t> size_{0};
};

/// The process-wide interner every Filter/TokenDatabase shares. Using one
/// table means a TokenizedDataset interned once is valid for every filter
/// copy an experiment makes.
TokenInterner& global_interner();

}  // namespace sbx::spambayes
