#include "spambayes/interner.h"

#include <cstring>

#include "util/error.h"

namespace sbx::spambayes {

TokenInterner::Table::Table(std::size_t capacity_in)
    : capacity(capacity_in),
      mask(capacity_in - 1),
      slots(new std::atomic<std::uint32_t>[capacity_in]) {
  for (std::size_t i = 0; i < capacity; ++i) {
    slots[i].store(0, std::memory_order_relaxed);
  }
}

TokenInterner::TokenInterner() {
  tables_.push_back(std::make_unique<Table>(kInitialTableCapacity));
  table_.store(tables_.back().get(), std::memory_order_release);
}

TokenInterner::~TokenInterner() {
  for (auto& slot : chunks_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

std::optional<TokenId> TokenInterner::probe(const Table& table,
                                            std::size_t token_hash,
                                            std::string_view token) const {
  for (std::size_t i = token_hash & table.mask;; i = (i + 1) & table.mask) {
    const std::uint32_t value = table.slots[i].load(std::memory_order_acquire);
    if (value == 0) return std::nullopt;
    const TokenId id = value - 1;
    if (spelling_unchecked(id) == token) return id;
  }
}

void TokenInterner::place(Table& table, std::size_t token_hash,
                          TokenId id) {
  for (std::size_t i = token_hash & table.mask;; i = (i + 1) & table.mask) {
    if (table.slots[i].load(std::memory_order_relaxed) == 0) {
      table.slots[i].store(id + 1, std::memory_order_release);
      return;
    }
  }
}

std::string_view TokenInterner::store(std::string_view token) {
  if (token.size() > arena_block_size_ - arena_block_used_ ||
      arena_.empty()) {
    // Oversized tokens get a dedicated block so normal blocks stay densely
    // packed.
    const std::size_t block =
        token.size() > kArenaBlockBytes / 4 ? token.size() : kArenaBlockBytes;
    arena_.push_back(std::make_unique<char[]>(block));
    arena_block_size_ = block;
    arena_block_used_ = 0;
    arena_total_ += block;
  }
  char* dst = arena_.back().get() + arena_block_used_;
  std::memcpy(dst, token.data(), token.size());
  arena_block_used_ += token.size();
  return {dst, token.size()};
}

TokenId TokenInterner::intern(std::string_view token,
                              std::size_t token_hash) {
  // Warm path: completely lock-free.
  if (const auto id = probe(*table_.load(std::memory_order_acquire),
                            token_hash, token)) {
    return *id;
  }

  const util::MutexLock lock(write_mutex_);
  Table* table = table_.load(std::memory_order_relaxed);
  if (const auto id = probe(*table, token_hash, token)) {
    return *id;  // raced with another inserter
  }

  const std::uint32_t id = size_.load(std::memory_order_relaxed);
  if (id >= kMaxChunks * kChunkSize) {
    throw InvalidArgument("TokenInterner: id space exhausted");
  }
  const std::string_view stored = store(token);
  auto& chunk_slot = chunks_[id >> kChunkBits];
  Chunk* chunk = chunk_slot.load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunk_slot.store(chunk, std::memory_order_release);
  }
  chunk->entries[id & (kChunkSize - 1)] = stored;
  // Publish the spelling before any table slot can hand the id out.
  size_.store(id + 1, std::memory_order_release);

  // Grow at 50% load: rebuild into a double-size table and swap. The old
  // table is retired, not freed — a reader still probing it sees a correct
  // view of every id interned before the swap (intern() re-probes under the
  // mutex on a miss; find() reports the miss, see interner.h).
  if ((static_cast<std::size_t>(id) + 1) * 2 >= table->capacity) {
    auto grown = std::make_unique<Table>(table->capacity * 2);
    for (TokenId existing = 0; existing < id; ++existing) {
      place(*grown, hash(spelling_unchecked(existing)), existing);
    }
    table = grown.get();
    tables_.push_back(std::move(grown));
    table_.store(table, std::memory_order_release);
  }
  place(*table, token_hash, id);
  return id;
}

std::optional<TokenId> TokenInterner::find(std::string_view token,
                                           std::size_t token_hash) const {
  return probe(*table_.load(std::memory_order_acquire), token_hash, token);
}

std::string_view TokenInterner::spelling(TokenId id) const {
  if (id >= size_.load(std::memory_order_acquire)) {
    throw InvalidArgument("TokenInterner::spelling: unknown id");
  }
  return spelling_unchecked(id);
}

std::size_t TokenInterner::arena_bytes() const {
  const util::MutexLock lock(write_mutex_);
  return arena_total_;
}

TokenInterner& global_interner() {
  static TokenInterner interner;
  return interner;
}

}  // namespace sbx::spambayes
