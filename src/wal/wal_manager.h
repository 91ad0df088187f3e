#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "buffer/buffer_manager.h"
#include "disk/log_file.h"
#include "wal/wal_format.h"

/// \file wal_manager.h
/// The write-ahead log of one persistent store: LSN allocation, record
/// buffering, epoch-based group commit, checkpoint truncation, and the
/// WAL-before-data ordering hook the buffer pool calls at write-back.
///
/// Concurrency protocol (the multi-writer story):
///
///   * AppendOp runs under the op's per-segment write-latch set, held from
///     apply through LSN stamping — so per segment (and hence per page),
///     LSN order IS apply order, which is what makes logical redo
///     deterministic. Ops on disjoint latch sets append concurrently: the
///     payload is encoded outside mu_ and only the framing runs under it,
///     keeping the log the single short serialized point of the write path.
///   * Commit(lsn) runs OUTSIDE the store mutex: concurrent committers
///     overlap in EnsureDurable, where the first arrival becomes the epoch
///     leader, snapshots the pending buffer, appends + fsyncs it in one
///     batch, and wakes every follower whose LSN the batch covered. Writers
///     that arrive while a leader syncs queue up for the next epoch, so one
///     fsync carries many writers' durability work without any timed
///     accumulation window (the Samsung-IO-stack observation).
///   * Sync policies: kAlways (every commit waits for durability, batched
///     with its contemporaries) and kNone (commits return immediately;
///     durability arrives at the next checkpoint — the pre-WAL contract,
///     and the default). Under kNone the pending buffer is spilled
///     un-synced to the file once it reaches kWalSpillBytes, bounding
///     memory between checkpoints.
///
/// Failure model (fsyncgate): a failed append, sync or truncation poisons
/// the manager permanently. A poisoned log acknowledges nothing, the store
/// fails writes fast, and Flush refuses to checkpoint — the directory stays
/// at the last committed state instead of advancing past records that may
/// not be on disk.
///
/// WAL-before-data: the buffer pool calls EnsureDurable(max frame LSN)
/// before handing a write-back batch to the volume, regardless of sync
/// policy — an un-synced page image must never land over committed bytes
/// while the record that explains it is still volatile.

namespace starfish {

/// When a committer learns its record is durable.
enum class WalSyncPolicy {
  kNone,    ///< never at commit; the checkpoint syncs (default)
  kAlways,  ///< every commit fsyncs (leader-batched with concurrent ones)
};

/// Pending records are spilled (un-synced) to the file once the in-memory
/// buffer reaches this many bytes, bounding memory between checkpoints.
inline constexpr size_t kWalSpillBytes = size_t{1} << 20;

struct WalManagerOptions {
  WalSyncPolicy sync = WalSyncPolicy::kNone;
};

class WalManager final : public WalOrderingHook {
 public:
  /// Takes over the log whose on-disk state is `scan` (produced by
  /// ScanWalFile on the same path `file` appends to).
  ///
  ///   * valid scan, clean tail — appends continue at scan.next_lsn;
  ///   * valid scan, torn tail — the file is first rewritten to its valid
  ///     prefix (durably), so new appends follow validated bytes;
  ///   * missing file or invalid header — the log is rebuilt fresh at
  ///     `rebuild_base_lsn`: header only when `rebuild_generation` is 0, or
  ///     header + a checkpoint record carrying that generation (its LSN is
  ///     the base). The caller is responsible for having recovered the
  ///     store by other means (the paranoid scrub) before discarding the
  ///     tail like this.
  static Result<std::unique_ptr<WalManager>> Open(
      std::unique_ptr<LogFile> file, const WalScan& scan,
      uint64_t rebuild_base_lsn, uint64_t rebuild_generation,
      WalManagerOptions options);

  /// First LSN no appended record carries yet.
  uint64_t next_lsn() const;

  /// Highest LSN known durable.
  uint64_t durable_lsn() const;

  /// OK, or the poison status after a log I/O failure.
  Status status() const;

  WalSyncPolicy sync_policy() const { return options_.sync; }

  // -------------------------------------------------------- pre-images --
  /// Pages below this id existed at the last checkpoint: an op's first
  /// write to one of them this interval must log a pre-image.
  void SetCheckpointPageCount(uint64_t page_count);

  /// True when an op dirtying `id` must capture its pre-image: the page
  /// belongs to the committed checkpoint and no record since then carries
  /// an image of it. (The buffer pool's write capture queries this.)
  bool NeedsPreimage(PageId id) const;

  // ------------------------------------------------------------- append --
  /// Appends one op record under the op's write-latch set: assigns the next
  /// LSN, frames the record into the pending buffer, and marks the op's
  /// pre-imaged pages as imaged for this checkpoint interval. Volatile
  /// until EnsureDurable covers the returned LSN.
  Result<uint64_t> AppendOp(WalRecordKind kind, uint8_t flags,
                            const WalOpPayload& op);

  /// Appends a kTxnBegin/kTxnCommit/kTxnAbort marker carrying `txn_id`.
  /// Same LSN and durability semantics as AppendOp; markers dirty no pages
  /// and are never re-run — replay only reads them to decide which txn ops
  /// redo.
  Result<uint64_t> AppendTxnMarker(WalRecordKind kind, uint64_t txn_id);

  /// Commit acknowledgement per the sync policy: kNone returns immediately,
  /// kAlways blocks until `lsn` is durable.
  Status Commit(uint64_t lsn);

  /// WAL-before-data (WalOrderingHook): group-commit core. lsn 0 = no-op.
  Status EnsureDurable(uint64_t lsn) override;

  /// Makes every appended record durable (checkpoint preamble).
  Status SyncAll();

  // --------------------------------------------------------- checkpoint --
  /// Durably truncates the log at a committed checkpoint: the file becomes
  /// header{base_lsn = checkpoint_lsn} + one checkpoint record (that LSN,
  /// carrying `generation`), the imaged-page set clears, and the pre-image
  /// threshold becomes `page_count`. `checkpoint_lsn` must be next_lsn()
  /// at the time the catalog payload was built (every op record before the
  /// catalog commit is below it). Called after CommitCurrentGeneration —
  /// a crash in between leaves stale sub-checkpoint records that the next
  /// Open's replay filter skips.
  Status TruncateAt(uint64_t checkpoint_lsn, uint64_t generation,
                    uint64_t page_count);

 private:
  WalManager(std::unique_ptr<LogFile> file, WalManagerOptions options)
      : file_(std::move(file)), options_(options) {}

  /// Appends pending_ to the file un-synced (memory bound). mu_ held,
  /// no leader active.
  void SpillLocked();

  void PoisonLocked(const Status& s);

  std::unique_ptr<LogFile> file_;
  WalManagerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  /// Framed records not yet handed to the file.
  std::string pending_;
  /// An epoch leader is appending+syncing with mu_ released.
  bool leader_active_ = false;
  Status poison_ = Status::OK();
  /// Pre-image bookkeeping (see NeedsPreimage).
  uint64_t checkpoint_page_count_ = 0;
  std::unordered_set<PageId> imaged_pages_;
};

}  // namespace starfish
