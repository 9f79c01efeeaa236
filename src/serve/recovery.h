// sbx/serve/recovery.h
//
// Crash-safe persistence for the serving layer: the data-directory layout,
// the per-shard overlay snapshots (full + incremental chain), the startup
// manifest, the group-commit fsync window, and the recovery replay that
// rebuilds a ServeFrontend to the exact state an uninterrupted run would
// hold.
//
// Data directory layout:
//
//   <data-dir>/MANIFEST            topology fingerprint (text)
//   <data-dir>/shard-NNNN/wal.log  mutation log (wal.h framing)
//   <data-dir>/shard-NNNN/snapshot.db
//                                  last full checkpoint of the shard
//   <data-dir>/shard-NNNN/snap-NNNNNN.inc
//                                  incremental segments: only the users
//                                  dirtied since the previous checkpoint,
//                                  CRC-chained parent -> child
//
// Recovery invariant (the tentpole's correctness bar): overlay contents
// after `recover()` are bit-identical to an uninterrupted process that
// applied the same mutations — snapshots embed exact SBXDB 1 save() bytes
// (the overlay's SparseTokenDatabase writes TokenDatabase's format byte for
// byte), and WAL replay re-tokenizes the logged raw message text through
// the identical pipeline the live request took. (Overlay *generation*
// stamps are process-local and differ across restarts by design; nothing
// durable depends on them.)
//
// Snapshot atomicity: snapshots are written tmp → fsync → rename → fsync
// parent dir, then the WAL is truncated. A crash between rename and
// truncate is safe because the snapshot records the highest folded seqno
// and replay skips WAL records at or below it.
//
// Incremental chain: each segment stores its parent's content CRC, so
// recovery can prove the chain is unbroken (full snapshot → seg 1 → … →
// seg N). A segment that fails its own CRC or breaks the parent link is
// unrecoverable corruption and throws — EXCEPT segments provably older
// than the full snapshot (seqno at or below the full's), which are
// leftovers of a compaction interrupted mid-delete and are skipped.
//
// Group commit (fsync=batch): appends mark their log dirty and draw a
// commit ticket; Durability::await_durable makes the first waiter in a
// commit window fsync every dirty log once, covering every ticket drawn
// before the fsync — later waiters in the same window return without
// touching the disk.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/shard.h"
#include "serve/wal.h"
#include "util/thread_annotations.h"

namespace sbx::serve {

class ServeFrontend;

/// How the serving layer persists mutations.
struct DurabilityConfig {
  std::string data_dir;
  FsyncMode fsync = FsyncMode::kBatch;
  /// Snapshot a shard (and truncate its log) once this many records
  /// accumulate since the last snapshot; 0 = never snapshot automatically.
  std::uint64_t snapshot_every = 0;
};

/// An incremental chain longer than this is compacted into a fresh full
/// snapshot at the next checkpoint (bounds recovery's segment walk).
inline constexpr std::uint64_t kCompactChainAfterSegments = 8;

// --- Paths -----------------------------------------------------------------

std::string shard_dir(const std::string& data_dir, std::size_t shard);
std::string wal_path_in(const std::string& data_dir, std::size_t shard);
std::string snapshot_path_in(const std::string& data_dir, std::size_t shard);
std::string incremental_snapshot_path_in(const std::string& data_dir,
                                         std::size_t shard,
                                         std::uint64_t index);

// --- Manifest --------------------------------------------------------------

/// The topology fingerprint persisted next to the logs. Recovery only
/// makes sense into an identically-shaped frontend (routing and the base
/// model derive deterministically from these), so sbx_serve refuses to
/// start when the manifest disagrees with its flags.
struct Manifest {
  std::uint64_t users = 0;
  std::uint64_t shards = 0;
  std::uint64_t base_size = 0;
  double spam_fraction = 0.5;
  std::uint64_t base_seed = 0;

  bool operator==(const Manifest&) const = default;
};

void write_manifest(const std::string& data_dir, const Manifest& manifest);

/// nullopt when no manifest exists; throws ParseError on a corrupt one.
std::optional<Manifest> read_manifest(const std::string& data_dir);

// --- Shard snapshots -------------------------------------------------------

/// One user's durable state inside a shard snapshot.
struct UserSnapshotState {
  std::uint64_t uid = 0;
  OverlaySnapshot overlay;          // null = user has no overlay
  std::vector<DedupEntry> dedup;    // oldest first
};

struct ShardSnapshot {
  std::uint64_t seqno = 0;  // highest seqno folded into this snapshot
  std::vector<UserSnapshotState> users;
};

/// Atomically replaces the snapshot at `path` (tmp + fsync + rename +
/// parent dir fsync). Users with a null overlay and no dedup entries are
/// skipped. Returns the CRC32 of the written file content — the chain
/// anchor for subsequent incremental segments.
std::uint32_t write_shard_snapshot(const std::string& path,
                                   std::uint64_t seqno,
                                   const std::vector<UserSnapshotState>& users);

/// nullopt when the file does not exist; throws ParseError on corruption
/// (a damaged snapshot is unrecoverable state loss and must fail loudly,
/// unlike a torn WAL tail which is expected after a crash).
std::optional<ShardSnapshot> read_shard_snapshot(const std::string& path);

/// One incremental segment: the users dirtied since the parent checkpoint.
struct IncrementalSnapshot {
  std::uint64_t index = 0;       // position in the chain file name
  std::uint64_t seqno = 0;       // highest seqno folded into this segment
  std::uint32_t parent_crc = 0;  // content CRC of the predecessor
  std::vector<UserSnapshotState> users;
};

struct IncrementalWriteResult {
  std::uint32_t crc = 0;    // content CRC (the next segment's parent)
  std::uint64_t bytes = 0;  // file size written
};

/// Atomically writes one chain segment; its trailing `crc` line commits
/// the content CRC the next segment must name as parent.
IncrementalWriteResult write_incremental_snapshot_file(
    const std::string& path, const IncrementalSnapshot& snap);

/// nullopt when the file does not exist; throws ParseError when the
/// trailing CRC does not cover the bytes (corruption is loud). On success
/// `out_crc`, if non-null, receives the validated content CRC.
std::optional<IncrementalSnapshot> read_incremental_snapshot_file(
    const std::string& path, std::uint32_t* out_crc = nullptr);

/// Everything recovery (and Durability's constructor) needs to know about
/// one shard's checkpoint chain on disk.
struct SnapshotChainScan {
  std::optional<ShardSnapshot> full;
  std::vector<IncrementalSnapshot> segments;  // live chain, ascending index
  std::uint64_t snapshot_seqno = 0;  // effective checkpoint watermark
  std::uint32_t tail_crc = 0;        // CRC the next segment chains onto
  std::uint64_t next_index = 1;      // 1 + highest segment index on disk
  std::uint64_t oldest_index = 1;    // lowest segment index on disk
  std::vector<std::string> stale_paths;  // pre-compaction leftovers
};

/// Loads and validates one shard's full snapshot + incremental chain.
/// Throws ParseError on a broken chain that cannot be explained as
/// compaction leftovers (see the header comment).
SnapshotChainScan scan_snapshot_chain(const std::string& data_dir,
                                      std::size_t shard);

// --- Durability (live write side) ------------------------------------------

/// Owns the open WAL writers, the global mutation seqno counter, the
/// group-commit window and the per-shard snapshot chains for a serving
/// process. Constructed once, attached to the frontend's shards.
class Durability {
 public:
  /// Creates the data-dir layout, opens one WalWriter per shard, and scans
  /// each shard's existing snapshot chain to find the tail it extends.
  Durability(DurabilityConfig config, std::size_t shard_count);

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  const DurabilityConfig& config() const { return config_; }
  std::size_t shard_count() const { return wals_.size(); }
  WalWriter& wal(std::size_t shard) { return *wals_.at(shard); }
  std::string snapshot_path(std::size_t shard) const {
    return snapshot_path_in(config_.data_dir, shard);
  }
  std::uint64_t snapshot_every() const { return config_.snapshot_every; }

  /// Next global mutation seqno (strictly increasing across all shards).
  std::uint64_t draw_seqno() {
    return next_seqno_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Advances the seqno counter past everything recovery replayed.
  void note_recovered_seqno(std::uint64_t max_seen);

  // --- Group commit --------------------------------------------------------

  /// Draws a commit ticket for a record just appended to a WAL. The
  /// release order pairs with await_durable's acquire load: a ticket a
  /// window leader observes covers a write() that already happened.
  std::uint64_t note_append() {
    return appended_.fetch_add(1, std::memory_order_release) + 1;
  }

  /// Blocks until `ticket` is covered by an fsync (fsync=batch only; the
  /// other modes are durable — or explicitly not — at append time). The
  /// first caller into an open window becomes its leader: it fsyncs every
  /// dirty log once and releases every ticket drawn before its fsync;
  /// concurrent callers queue on the window mutex and find their ticket
  /// already committed.
  void await_durable(std::uint64_t ticket) SBX_EXCLUDES(commit_mutex_);

  std::uint64_t group_commit_windows() const {
    return windows_.load(std::memory_order_relaxed);
  }

  // --- Snapshot chain ------------------------------------------------------

  /// True when the next checkpoint of `shard` must be a full snapshot
  /// (chain too long, time to compact).
  bool snapshot_wants_full(std::size_t shard) SBX_EXCLUDES(chain_mutex_);

  /// Writes a full snapshot and deletes the shard's segment files (the
  /// compaction step). The caller still owns WAL truncation.
  void write_full_snapshot(std::size_t shard, std::uint64_t seqno,
                           const std::vector<UserSnapshotState>& users)
      SBX_EXCLUDES(chain_mutex_);

  /// Appends one incremental segment (the users dirtied since the last
  /// checkpoint) to the shard's chain. The caller still owns WAL
  /// truncation.
  void write_incremental_snapshot(std::size_t shard, std::uint64_t seqno,
                                  std::vector<UserSnapshotState> dirty_users)
      SBX_EXCLUDES(chain_mutex_);

  std::uint64_t incremental_snapshot_bytes() const {
    return inc_bytes_.load(std::memory_order_relaxed);
  }

  // --- Shutdown / stats ----------------------------------------------------

  /// Final flush (graceful shutdown / drain).
  void sync_all();

  std::uint64_t total_records() const;
  std::uint64_t total_bytes() const;
  std::uint64_t snapshots_taken() const {
    return snapshots_.load(std::memory_order_relaxed);
  }
  void note_snapshot() {
    snapshots_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// One shard's checkpoint-chain tail, extended under chain_mutex_.
  struct ChainState {
    std::uint64_t next_index = 1;
    std::uint32_t last_crc = 0;
    std::uint64_t segments = 0;
    std::uint64_t oldest_index = 1;  // lowest segment file still on disk
  };

  // config_ and wals_ are const after the constructor (the WalWriters
  // themselves serialize their file state behind their own io mutex);
  // counters are atomics; the commit window and the snapshot chains have
  // their own mutexes below.
  DurabilityConfig config_;
  std::vector<std::unique_ptr<WalWriter>> wals_;
  std::atomic<std::uint64_t> next_seqno_{1};
  std::atomic<std::uint64_t> snapshots_{0};

  // Group-commit window. committed_ is the highest ticket covered by an
  // fsync; appended_ is the highest ticket drawn.
  std::atomic<std::uint64_t> appended_{0};
  util::Mutex commit_mutex_{util::LockRank::kCommit,
                            "Durability::commit_mutex_"};
  std::uint64_t committed_ SBX_GUARDED_BY(commit_mutex_) = 0;
  std::atomic<std::uint64_t> windows_{0};

  // Snapshot chains, one per shard. File writes happen under the mutex —
  // checkpoints are rare and per-shard callers already hold their shard's
  // mutation lock, so contention here is a non-event.
  util::Mutex chain_mutex_{util::LockRank::kChain,
                           "Durability::chain_mutex_"};
  std::vector<ChainState> chains_ SBX_GUARDED_BY(chain_mutex_);
  std::atomic<std::uint64_t> inc_bytes_{0};
};

// --- Recovery --------------------------------------------------------------

struct RecoveryStats {
  std::uint64_t snapshot_users = 0;      // user entries restored from the chain
  std::uint64_t snapshot_segments = 0;   // incremental segments applied
  std::uint64_t replayed_records = 0;    // WAL records re-applied
  std::uint64_t torn_dropped = 0;        // torn/corrupt tail frames dropped
  std::uint64_t wal_bytes = 0;           // valid WAL bytes consumed
  std::uint64_t duration_ms = 0;
  std::uint64_t max_seqno = 0;           // highest seqno observed
};

/// Rebuilds `frontend` from `data_dir`: per shard, installs the full
/// snapshot (if any), folds the incremental chain over it (later segments
/// override earlier users), then replays WAL records with seqno above the
/// chain's watermark. With `repair_torn_tail` (the serving daemon), a
/// dropped WAL tail is truncated off the log file and stale pre-compaction
/// segments are deleted; a read-only mirror (sbx_loadgen
/// --verify-data-dir) leaves files alone. The frontend must be freshly
/// constructed with the manifest's topology.
RecoveryStats recover(ServeFrontend& frontend, const std::string& data_dir,
                      bool repair_torn_tail = false);

}  // namespace sbx::serve
