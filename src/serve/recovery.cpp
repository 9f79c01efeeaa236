#include "serve/recovery.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "serve/frontend.h"
#include "spambayes/token_db.h"
#include "util/crc32.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Writes `content` to `path` atomically and durably: tmp file + fsync +
/// rename + parent-directory fsync. The rename is the commit point.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("recovery: open " + tmp);
  std::size_t sent = 0;
  while (sent < content.size()) {
    const ssize_t n = ::write(fd, content.data() + sent, content.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      throw_errno("recovery: write " + tmp);
    }
    sent += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("recovery: fsync " + tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) < 0) {
    throw_errno("recovery: rename " + tmp + " -> " + path);
  }
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dirfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    ::fsync(dirfd);  // best effort: makes the rename itself durable
    ::close(dirfd);
  }
}

/// nullopt when the file does not exist; throws IoError on read failures.
std::optional<std::string> read_file_to_string(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) throw IoError("recovery: read " + path);
  return std::move(out).str();
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Strict "key value..." line splitter for the text headers.
std::istringstream line_fields(std::istream& in, const std::string& expect_key,
                               const std::string& what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw ParseError(what + ": truncated (expected '" + expect_key + "' line)");
  }
  std::istringstream fields(line);
  std::string key;
  fields >> key;
  if (key != expect_key) {
    throw ParseError(what + ": expected '" + expect_key + "', got '" + line +
                     "'");
  }
  return fields;
}

std::uint64_t read_u64_field(std::istringstream& fields,
                             const std::string& what) {
  std::uint64_t v = 0;
  if (!(fields >> v)) throw ParseError(what + ": malformed numeric field");
  return v;
}

/// Serializes user states in the line format shared by full snapshots and
/// incremental segments.
void append_user_states(std::ostream& out,
                        const std::vector<UserSnapshotState>& users) {
  for (const UserSnapshotState& u : users) {
    out << "user " << u.uid << " " << u.dedup.size() << " "
        << (u.overlay != nullptr ? 1 : 0) << "\n";
    for (const DedupEntry& d : u.dedup) {
      out << "dedup " << d.request_id << " "
          << static_cast<unsigned>(d.op) << " " << d.spam << " " << d.ham
          << "\n";
    }
    if (u.overlay != nullptr) {
      // SparseTokenDatabase::load reads to end-of-stream, so the embedded
      // block needs an explicit byte count to know where this user's
      // database ends and the next header line begins.
      std::ostringstream db;
      u.overlay->save(db);
      const std::string bytes = db.str();
      out << "dbbytes " << bytes.size() << "\n" << bytes << "\n";
    }
  }
}

/// Filters out users that carry no durable state (nothing to restore).
std::vector<UserSnapshotState> prune_empty_users(
    const std::vector<UserSnapshotState>& users) {
  std::vector<UserSnapshotState> kept;
  kept.reserve(users.size());
  for (const UserSnapshotState& u : users) {
    if (u.overlay != nullptr || !u.dedup.empty()) kept.push_back(u);
  }
  return kept;
}

std::vector<UserSnapshotState> parse_user_states(std::istream& in,
                                                 std::uint64_t user_count,
                                                 const std::string& what) {
  std::vector<UserSnapshotState> users;
  users.reserve(user_count);
  for (std::uint64_t i = 0; i < user_count; ++i) {
    UserSnapshotState u;
    std::uint64_t dedup_count = 0;
    std::uint64_t db_present = 0;
    {
      auto f = line_fields(in, "user", what);
      u.uid = read_u64_field(f, what);
      dedup_count = read_u64_field(f, what);
      db_present = read_u64_field(f, what);
    }
    u.dedup.reserve(dedup_count);
    for (std::uint64_t d = 0; d < dedup_count; ++d) {
      auto f = line_fields(in, "dedup", what);
      DedupEntry e;
      e.request_id = read_u64_field(f, what);
      e.op = static_cast<std::uint8_t>(read_u64_field(f, what));
      e.spam = static_cast<std::uint32_t>(read_u64_field(f, what));
      e.ham = static_cast<std::uint32_t>(read_u64_field(f, what));
      u.dedup.push_back(e);
    }
    if (db_present != 0) {
      std::uint64_t nbytes = 0;
      {
        auto f = line_fields(in, "dbbytes", what);
        nbytes = read_u64_field(f, what);
      }
      std::string bytes(nbytes, '\0');
      if (!in.read(bytes.data(), static_cast<std::streamsize>(nbytes))) {
        throw ParseError(what + ": truncated database block");
      }
      if (in.get() != '\n') {
        throw ParseError(what + ": database block not newline-terminated");
      }
      std::istringstream db(bytes);
      u.overlay = std::make_shared<spambayes::SparseTokenDatabase>(
          spambayes::SparseTokenDatabase::load(db));
    }
    users.push_back(std::move(u));
  }
  return users;
}

ShardSnapshot parse_shard_snapshot(std::istream& in, const std::string& what) {
  std::string magic;
  if (!std::getline(in, magic) || magic != "SBXSNAP 1") {
    throw ParseError(what + ": bad magic");
  }
  ShardSnapshot snap;
  {
    auto f = line_fields(in, "seqno", what);
    snap.seqno = read_u64_field(f, what);
  }
  std::uint64_t user_count = 0;
  {
    auto f = line_fields(in, "users", what);
    user_count = read_u64_field(f, what);
  }
  snap.users = parse_user_states(in, user_count, what);
  return snap;
}

}  // namespace

// --- Paths -----------------------------------------------------------------

std::string shard_dir(const std::string& data_dir, std::size_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%04zu", shard);
  return data_dir + "/" + buf;
}

std::string wal_path_in(const std::string& data_dir, std::size_t shard) {
  return shard_dir(data_dir, shard) + "/wal.log";
}

std::string snapshot_path_in(const std::string& data_dir, std::size_t shard) {
  return shard_dir(data_dir, shard) + "/snapshot.db";
}

std::string incremental_snapshot_path_in(const std::string& data_dir,
                                         std::size_t shard,
                                         std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%06llu.inc",
                static_cast<unsigned long long>(index));
  return shard_dir(data_dir, shard) + "/" + buf;
}

// --- Manifest --------------------------------------------------------------

void write_manifest(const std::string& data_dir, const Manifest& manifest) {
  std::ostringstream out;
  out << "SBXMANIFEST 1\n";
  out << "users " << manifest.users << "\n";
  out << "shards " << manifest.shards << "\n";
  out << "base_size " << manifest.base_size << "\n";
  out << "spam_fraction " << format_double(manifest.spam_fraction) << "\n";
  out << "base_seed " << manifest.base_seed << "\n";
  write_file_atomic(data_dir + "/MANIFEST", out.str());
}

std::optional<Manifest> read_manifest(const std::string& data_dir) {
  const std::string path = data_dir + "/MANIFEST";
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  const std::string what = "manifest " + path;
  std::string magic;
  if (!std::getline(in, magic) || magic != "SBXMANIFEST 1") {
    throw ParseError(what + ": bad magic");
  }
  Manifest m;
  {
    auto f = line_fields(in, "users", what);
    m.users = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "shards", what);
    m.shards = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "base_size", what);
    m.base_size = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "spam_fraction", what);
    if (!(f >> m.spam_fraction)) {
      throw ParseError(what + ": malformed spam_fraction");
    }
  }
  {
    auto f = line_fields(in, "base_seed", what);
    m.base_seed = read_u64_field(f, what);
  }
  return m;
}

// --- Shard snapshots -------------------------------------------------------

std::uint32_t write_shard_snapshot(
    const std::string& path, std::uint64_t seqno,
    const std::vector<UserSnapshotState>& users) {
  const std::vector<UserSnapshotState> kept = prune_empty_users(users);
  std::ostringstream out;
  out << "SBXSNAP 1\n";
  out << "seqno " << seqno << "\n";
  out << "users " << kept.size() << "\n";
  append_user_states(out, kept);
  const std::string content = std::move(out).str();
  write_file_atomic(path, content);
  return util::crc32(reinterpret_cast<const std::uint8_t*>(content.data()),
                     content.size());
}

std::optional<ShardSnapshot> read_shard_snapshot(const std::string& path) {
  const std::optional<std::string> content = read_file_to_string(path);
  if (!content.has_value()) return std::nullopt;
  std::istringstream in(*content);
  return parse_shard_snapshot(in, "snapshot " + path);
}

IncrementalWriteResult write_incremental_snapshot_file(
    const std::string& path, const IncrementalSnapshot& snap) {
  const std::vector<UserSnapshotState> kept = prune_empty_users(snap.users);
  std::ostringstream out;
  out << "SBXSNAPINC 1\n";
  out << "index " << snap.index << "\n";
  out << "parent_crc " << snap.parent_crc << "\n";
  out << "seqno " << snap.seqno << "\n";
  out << "users " << kept.size() << "\n";
  append_user_states(out, kept);
  std::string content = std::move(out).str();
  IncrementalWriteResult result;
  result.crc = util::crc32(
      reinterpret_cast<const std::uint8_t*>(content.data()), content.size());
  content += "crc " + std::to_string(result.crc) + "\n";
  write_file_atomic(path, content);
  result.bytes = content.size();
  return result;
}

std::optional<IncrementalSnapshot> read_incremental_snapshot_file(
    const std::string& path, std::uint32_t* out_crc) {
  const std::optional<std::string> content = read_file_to_string(path);
  if (!content.has_value()) return std::nullopt;
  const std::string what = "incremental snapshot " + path;
  std::istringstream in(*content);
  std::string magic;
  if (!std::getline(in, magic) || magic != "SBXSNAPINC 1") {
    throw ParseError(what + ": bad magic");
  }
  IncrementalSnapshot snap;
  {
    auto f = line_fields(in, "index", what);
    snap.index = read_u64_field(f, what);
  }
  {
    auto f = line_fields(in, "parent_crc", what);
    snap.parent_crc = static_cast<std::uint32_t>(read_u64_field(f, what));
  }
  {
    auto f = line_fields(in, "seqno", what);
    snap.seqno = read_u64_field(f, what);
  }
  std::uint64_t user_count = 0;
  {
    auto f = line_fields(in, "users", what);
    user_count = read_u64_field(f, what);
  }
  snap.users = parse_user_states(in, user_count, what);
  // Everything consumed so far is the content the trailing crc line signs.
  const std::streampos pos = in.tellg();
  if (pos < 0) throw ParseError(what + ": truncated before crc line");
  const std::uint32_t computed = util::crc32(
      reinterpret_cast<const std::uint8_t*>(content->data()),
      static_cast<std::size_t>(pos));
  std::uint32_t stored = 0;
  {
    auto f = line_fields(in, "crc", what);
    stored = static_cast<std::uint32_t>(read_u64_field(f, what));
  }
  if (stored != computed) {
    throw ParseError(what + ": content crc mismatch (stored " +
                     std::to_string(stored) + ", computed " +
                     std::to_string(computed) + ")");
  }
  if (out_crc != nullptr) *out_crc = computed;
  return snap;
}

SnapshotChainScan scan_snapshot_chain(const std::string& data_dir,
                                      std::size_t shard) {
  SnapshotChainScan scan;
  const std::string full_path = snapshot_path_in(data_dir, shard);
  std::uint32_t full_crc = 0;
  if (const std::optional<std::string> bytes = read_file_to_string(full_path)) {
    full_crc = util::crc32(
        reinterpret_cast<const std::uint8_t*>(bytes->data()), bytes->size());
    std::istringstream in(*bytes);
    scan.full = parse_shard_snapshot(in, "snapshot " + full_path);
    scan.snapshot_seqno = scan.full->seqno;
  }
  scan.tail_crc = full_crc;

  // Enumerate snap-NNNNNN.inc segments (a missing shard dir = no chain).
  struct Loaded {
    IncrementalSnapshot snap;
    std::uint32_t crc = 0;
    std::string path;
  };
  std::map<std::uint64_t, Loaded> by_index;
  const std::string dir = shard_dir(data_dir, shard);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.rfind("snap-", 0) != 0 ||
        name.compare(name.size() - 4, 4, ".inc") != 0) {
      continue;
    }
    Loaded loaded;
    loaded.path = entry.path().string();
    std::optional<IncrementalSnapshot> snap =
        read_incremental_snapshot_file(loaded.path, &loaded.crc);
    if (!snap.has_value()) continue;  // raced away; treat as absent
    loaded.snap = std::move(*snap);
    const std::uint64_t index = loaded.snap.index;
    if (by_index.count(index) != 0) {
      throw ParseError("incremental snapshot " + loaded.path +
                       ": duplicate chain index " + std::to_string(index));
    }
    by_index.emplace(index, std::move(loaded));
  }
  if (by_index.empty()) return scan;

  scan.oldest_index = by_index.begin()->first;
  scan.next_index = by_index.rbegin()->first + 1;

  // Walk the chain backwards from the newest segment: consecutive indices
  // whose parent_crc names the predecessor's content crc form the live
  // suffix; its root must chain onto the full snapshot (or 0 when none).
  std::uint64_t root = by_index.rbegin()->first;
  while (by_index.count(root - 1) != 0 &&
         by_index.at(root).snap.parent_crc == by_index.at(root - 1).crc) {
    --root;
  }
  const bool rooted = by_index.at(root).snap.parent_crc == full_crc;
  const std::uint64_t full_seqno = scan.full ? scan.full->seqno : 0;
  for (auto& [index, loaded] : by_index) {
    const bool live = rooted && index >= root;
    if (!live) {
      // Only segments the full snapshot already covers may dangle — those
      // are leftovers of a compaction interrupted between the full-snapshot
      // rename and the segment deletes. Anything newer is lost state.
      if (loaded.snap.seqno > full_seqno) {
        throw ParseError("incremental snapshot " + loaded.path +
                         ": chain broken (parent crc mismatch at seqno " +
                         std::to_string(loaded.snap.seqno) +
                         " beyond full snapshot seqno " +
                         std::to_string(full_seqno) + ")");
      }
      scan.stale_paths.push_back(loaded.path);
      continue;
    }
    if (loaded.snap.seqno < scan.snapshot_seqno) {
      throw ParseError("incremental snapshot " + loaded.path +
                       ": seqno regressed along the chain");
    }
    scan.snapshot_seqno = loaded.snap.seqno;
    scan.tail_crc = loaded.crc;
    scan.segments.push_back(std::move(loaded.snap));
  }
  return scan;
}

// --- Durability ------------------------------------------------------------

Durability::Durability(DurabilityConfig config, std::size_t shard_count)
    : config_(std::move(config)) {
  if (config_.data_dir.empty()) {
    throw InvalidArgument("durability: data_dir must not be empty");
  }
  if (shard_count == 0) {
    throw InvalidArgument("durability: shard_count must be greater than 0");
  }
  std::error_code ec;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::string dir = shard_dir(config_.data_dir, s);
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      throw IoError("durability: mkdir " + dir + ": " + ec.message());
    }
  }
  wals_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    wals_.push_back(std::make_unique<WalWriter>(
        wal_path_in(config_.data_dir, s), config_.fsync));
  }
  const util::MutexLock lock(chain_mutex_);
  chains_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const SnapshotChainScan scan = scan_snapshot_chain(config_.data_dir, s);
    chains_[s].next_index = scan.next_index;
    chains_[s].last_crc = scan.tail_crc;
    chains_[s].segments = scan.segments.size();
    chains_[s].oldest_index = scan.oldest_index;
  }
}

void Durability::note_recovered_seqno(std::uint64_t max_seen) {
  std::uint64_t current = next_seqno_.load(std::memory_order_relaxed);
  while (current <= max_seen &&
         !next_seqno_.compare_exchange_weak(current, max_seen + 1,
                                            std::memory_order_relaxed)) {
  }
}

void Durability::await_durable(std::uint64_t ticket) {
  if (config_.fsync != FsyncMode::kBatch || ticket == 0) return;
  const util::MutexLock lock(commit_mutex_);
  while (committed_ < ticket) {
    // This thread leads the open commit window: one pass over the logs
    // (WalWriter::sync skips the clean ones) covers every ticket drawn
    // before the loads below. Waiters blocked on commit_mutex_ meanwhile
    // pile into the window and find committed_ past their ticket.
    const std::uint64_t target = appended_.load(std::memory_order_acquire);
    for (const auto& wal : wals_) wal->sync();
    committed_ = target;
    windows_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Durability::snapshot_wants_full(std::size_t shard) {
  const util::MutexLock lock(chain_mutex_);
  return chains_.at(shard).segments >= kCompactChainAfterSegments;
}

void Durability::write_full_snapshot(
    std::size_t shard, std::uint64_t seqno,
    const std::vector<UserSnapshotState>& users) {
  const util::MutexLock lock(chain_mutex_);
  ChainState& chain = chains_.at(shard);
  const std::uint32_t crc =
      write_shard_snapshot(snapshot_path(shard), seqno, users);
  // The full snapshot now covers every segment; delete them. A crash
  // mid-loop leaves stale segments that recovery recognizes (seqno at or
  // below the full's) and skips.
  for (std::uint64_t i = chain.oldest_index; i < chain.next_index; ++i) {
    ::unlink(
        incremental_snapshot_path_in(config_.data_dir, shard, i).c_str());
  }
  chain.last_crc = crc;
  chain.segments = 0;
  chain.oldest_index = chain.next_index;
}

void Durability::write_incremental_snapshot(
    std::size_t shard, std::uint64_t seqno,
    std::vector<UserSnapshotState> dirty_users) {
  const util::MutexLock lock(chain_mutex_);
  ChainState& chain = chains_.at(shard);
  IncrementalSnapshot snap;
  snap.index = chain.next_index;
  snap.parent_crc = chain.last_crc;
  snap.seqno = seqno;
  snap.users = std::move(dirty_users);
  const IncrementalWriteResult result = write_incremental_snapshot_file(
      incremental_snapshot_path_in(config_.data_dir, shard, snap.index), snap);
  ++chain.next_index;
  chain.last_crc = result.crc;
  ++chain.segments;
  inc_bytes_.fetch_add(result.bytes, std::memory_order_relaxed);
}

void Durability::sync_all() {
  for (const auto& wal : wals_) wal->sync();
}

std::uint64_t Durability::total_records() const {
  std::uint64_t total = 0;
  for (const auto& wal : wals_) total += wal->records();
  return total;
}

std::uint64_t Durability::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& wal : wals_) total += wal->bytes();
  return total;
}

// --- Recovery --------------------------------------------------------------

RecoveryStats recover(ServeFrontend& frontend, const std::string& data_dir,
                      bool repair_torn_tail) {
  const auto started = std::chrono::steady_clock::now();
  RecoveryStats stats;
  for (std::size_t s = 0; s < frontend.shard_count(); ++s) {
    SnapshotChainScan scan = scan_snapshot_chain(data_dir, s);
    const std::uint64_t snapshot_seqno = scan.snapshot_seqno;
    if (snapshot_seqno > stats.max_seqno) stats.max_seqno = snapshot_seqno;
    if (scan.full.has_value()) {
      for (UserSnapshotState& u : scan.full->users) {
        frontend.replay_install_user(u.uid, std::move(u.overlay),
                                     std::move(u.dedup));
        ++stats.snapshot_users;
      }
    }
    for (IncrementalSnapshot& seg : scan.segments) {
      // Later segments override earlier state for the same user — each
      // segment stores a dirtied user's complete overlay, not a delta.
      for (UserSnapshotState& u : seg.users) {
        frontend.replay_install_user(u.uid, std::move(u.overlay),
                                     std::move(u.dedup));
        ++stats.snapshot_users;
      }
      ++stats.snapshot_segments;
    }
    if (repair_torn_tail) {
      for (const std::string& stale : scan.stale_paths) {
        ::unlink(stale.c_str());
      }
    }
    const std::string wal_path = wal_path_in(data_dir, s);
    const WalReadStats rs = read_wal(wal_path, [&](const WalRecord& record) {
      if (record.seqno > stats.max_seqno) stats.max_seqno = record.seqno;
      if (record.seqno <= snapshot_seqno) return;  // folded into the chain
      frontend.replay_wal_record(record);
      ++stats.replayed_records;
    });
    stats.torn_dropped += rs.dropped_torn + rs.dropped_corrupt;
    stats.wal_bytes += rs.bytes_used;
    if (repair_torn_tail && rs.bytes_used < rs.bytes_total) {
      // Chop the torn tail off so future appends land where the scan
      // stops — otherwise every record after the tear stays unreadable.
      const int fd = ::open(wal_path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd < 0) throw_errno("recovery: open " + wal_path);
      if (::ftruncate(fd, static_cast<off_t>(rs.bytes_used)) < 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throw_errno("recovery: truncate " + wal_path);
      }
      ::fsync(fd);
      ::close(fd);
    }
  }
  stats.duration_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  return stats;
}

}  // namespace sbx::serve
