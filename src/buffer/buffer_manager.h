#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "disk/page.h"
#include "disk/volume.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

/// \file buffer_manager.h
/// The main-memory page buffer between the storage layer and the disk.
///
/// Reproduces the buffer behaviour the paper's measurements depend on:
///   * a fixed pool of frames (DASDBS ran with 1200 frames — the default);
///   * fix/unfix with pin counts; every fix is counted (Table 6 reports
///     "page fixes in buffer" as a CPU-load indicator);
///   * write-back caching: dirty pages go to disk only when the buffer
///     overflows or at FlushAll ("database disconnect"), and write-back is
///     batched so a single write call carries many pages (Table 5 observed
///     20-30 pages per write call for the direct models);
///   * prefetching an object's pages in one chained read call (DASDBS issued
///     separate calls for the root page, remaining header pages and data
///     pages of a complex record).
///
/// Replacement is LRU by default; CLOCK and FIFO are provided for the
/// buffer-policy ablation bench.
///
/// Implementation notes (the zero-copy hot path): all frame data lives in
/// one contiguous pool allocation; the LRU/FIFO eviction order is an
/// intrusive doubly-linked list threaded through prev/next frame indices (no
/// per-touch heap traffic); the page->frame map is a flat open-addressing
/// table with linear probing. Prefetch copies pages from the volume's
/// extents straight into frames via the Volume zero-copy read views, and
/// write-back hands frame pointers straight to WriteChained — steady state
/// does no heap allocation and one memcpy per page moved. The manager
/// programs against the abstract Volume interface, so any backend
/// (in-memory, mmap, direct, timed) plugs in underneath. Backends without a
/// memory image (supports_zero_copy() == false, i.e. the O_DIRECT backend)
/// take a copying path instead: Fix misses read the device straight into
/// the frame, Prefetch reads batches into an aligned per-thread staging
/// area — and BufferOptions::frame_alignment lets the frames themselves be
/// DMA targets.
///
/// Concurrency model: the pool is split into BufferOptions::shard_count
/// independent shards. A page id maps to its shard by the top bits of the
/// same Fibonacci hash the page table uses; each shard owns its slice of
/// frames, its page table, its LRU/CLOCK/FIFO order list, its counters and
/// its write-back scratch, all guarded by one shard mutex. A page therefore
/// only ever occupies frames of its own shard, eviction decisions never
/// cross shards, and a pinned page cannot be evicted by a racing thread
/// (pin counts are only read or written under the owning shard's lock).
///
///   * shard_count == 1 (the default) — the paper's single-user pool: one
///     shard, global replacement order, and NO locking. Counters and
///     eviction decisions are bit-for-bit what the original flat layout
///     produced; the Fix hit path stays lock-free. Not thread-safe.
///   * shard_count != 1 — thread-safe mode: Fix/FixFresh/Unfix/Prefetch/
///     FlushAll/IsCached/stats() may be called from any thread
///     concurrently. 0 picks a shard count from the hardware concurrency.
///     DropAll/ResetStats remain quiescent-only operations (benchmark phase
///     separators), and replacement is per shard, so miss counts can differ
///     from the 1-shard pool (still deterministic for a deterministic
///     access sequence).

namespace starfish {

/// WAL-before-data seam. The buffer manager knows nothing about the log's
/// format; it only promises that before any frame batch reaches the volume,
/// the hook has made every LSN recorded on those frames durable. WalManager
/// implements this (wal/wal_manager.h); the storage engine wires it in.
class WalOrderingHook {
 public:
  virtual ~WalOrderingHook() = default;

  /// Blocks until every log record with LSN <= `lsn` is durable (or the log
  /// is poisoned — then the write-back must not proceed).
  virtual Status EnsureDurable(uint64_t lsn) = 0;
};

/// Frame replacement policies.
enum class ReplacementPolicy {
  kLru,    ///< evict the least recently fixed unpinned page (default)
  kClock,  ///< second-chance clock
  kFifo,   ///< evict the oldest-loaded unpinned page
};

/// Buffer pool configuration.
struct BufferOptions {
  /// Number of page frames. DASDBS measurement setup: 1200.
  uint32_t frame_count = 1200;

  /// Replacement policy.
  ReplacementPolicy policy = ReplacementPolicy::kLru;

  /// When an eviction victim is dirty, up to this many cold dirty pages are
  /// cleaned together in one chained write call (DASDBS-style batched
  /// write-back). 1 disables batching.
  uint32_t write_batch_size = 32;

  /// Number of independent pool shards. 1 (default) = the paper-exact
  /// single-user pool, unlocked and NOT thread-safe. Any other value makes
  /// every hot-path call thread-safe behind per-shard mutexes: 0 derives a
  /// power of two from std::thread::hardware_concurrency(); values > 1 are
  /// rounded up to a power of two and clamped to frame_count.
  uint32_t shard_count = 1;

  /// Byte alignment of the frame arena (0 = natural new[] alignment;
  /// non-zero values are rounded up to a power of two). The storage engine
  /// raises this to Volume::io_buffer_alignment() so a direct (O_DIRECT)
  /// backend can DMA page reads straight into the frames. Every individual
  /// frame is aligned when page_size is itself a multiple of the alignment
  /// (e.g. 4096-byte pages at 4096 alignment); otherwise only the arena
  /// base is, and the volume bounces internally — correct either way.
  uint32_t frame_alignment = 0;
};

/// Buffer-side counters (disk-side counters live in Volume::stats()).
/// Aggregated over all shards on read; exact, because each shard's counters
/// only change under its lock.
struct BufferStats {
  uint64_t fixes = 0;            ///< Fix calls (the paper's "page fixes")
  uint64_t hits = 0;             ///< fixes satisfied without disk access
  uint64_t misses = 0;           ///< fixes that had to read the page
  uint64_t prefetched_pages = 0; ///< pages loaded via Prefetch
  uint64_t evictions = 0;        ///< frames reclaimed
  uint64_t write_backs = 0;      ///< dirty pages cleaned (overflow + flush)

  BufferStats Since(const BufferStats& earlier) const {
    BufferStats d;
    d.fixes = fixes - earlier.fixes;
    d.hits = hits - earlier.hits;
    d.misses = misses - earlier.misses;
    d.prefetched_pages = prefetched_pages - earlier.prefetched_pages;
    d.evictions = evictions - earlier.evictions;
    d.write_backs = write_backs - earlier.write_backs;
    return d;
  }

  BufferStats& operator+=(const BufferStats& other) {
    fixes += other.fixes;
    hits += other.hits;
    misses += other.misses;
    prefetched_pages += other.prefetched_pages;
    evictions += other.evictions;
    write_backs += other.write_backs;
    return *this;
  }

  std::string ToString() const;
};

/// How Prefetch groups the pages it must read into I/O calls.
enum class PrefetchMode {
  /// All missing pages in one chained call (an object fetched as a unit).
  kChained,
  /// Missing pages grouped into maximal runs of consecutive page ids, one
  /// call per run (a sequential scan through a segment).
  kContiguousRuns,
};

class BufferManager;

/// RAII pin on a buffered page. Move-only; unfixes on destruction.
///
/// Pin-ownership contract: the pin travels with the guard, and the guard
/// (including one it was move-assigned into) must be released on the thread
/// that created the pin — a guard is a thread-local lease, not a mailbox for
/// handing pages between threads. Debug builds assert this in Release();
/// each thread wanting the page takes its own Fix.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(void* shard, PageId id, char* data, uint32_t frame_idx)
      : shard_(shard), id_(id), data_(data), frame_idx_(frame_idx) {
#ifndef NDEBUG
    owner_ = std::this_thread::get_id();
#endif
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  // Dying guards skip Release()'s member resets (nobody can observe them).
  ~PageGuard();

  /// True when this guard holds a pinned page.
  bool valid() const { return shard_ != nullptr; }

  PageId page_id() const { return id_; }

  /// Frame contents; full physical page (header included).
  char* data() { return data_; }
  const char* data() const { return data_; }

  /// Marks the page modified; it will be written back on overflow or flush.
  void MarkDirty() { dirty_ = true; }

  /// Unfixes immediately (idempotent).
  void Release();

 private:
  void AssertOwningThread() const {
#ifndef NDEBUG
    assert(owner_ == std::this_thread::get_id() &&
           "PageGuard released on a different thread than the one that "
           "created the pin");
#endif
  }

  /// Drops the pin (shard lock taken through the shard's lock pointer).
  void Unpin();

  /// The owning BufferManager::Shard (opaque at this point in the header).
  /// The shard pointer is all a release needs: it carries the frame array,
  /// and its precomputed lock pointer (null for an unlocked pool) — so an
  /// unfix costs no hash and no detour through the manager.
  void* shard_ = nullptr;
  PageId id_ = kInvalidPageId;
  char* data_ = nullptr;
  uint32_t frame_idx_ = 0;  ///< shard-local frame index
  bool dirty_ = false;
#ifndef NDEBUG
  std::thread::id owner_;
#endif
};

/// The buffer pool. Thread-safe when options.shard_count != 1 (see the
/// concurrency model in the file comment).
///
/// WAL integration (all optional — a pool without a hook behaves exactly as
/// before):
///
///   * Each frame has a `recovery_lsn` (a per-shard array parallel to the
///     frames): the LSN of the last WAL record that dirtied the page.
///     Before a write-back batch reaches the volume, the WalOrderingHook
///     must make max(recovery_lsn of the batch) durable — WAL-before-data.
///   * While an op is being applied (between BeginWriteCapture and
///     StampRecoveryLsn) its dirtied frames hold the kPendingRecoveryLsn
///     sentinel: they are not yet explained by any log record, so eviction,
///     flush and write-back all skip them. StampRecoveryLsn resolves them
///     to the op's real LSN — and writes the same LSN into the page header
///     (disk/page.h), which is what sf_fsck cross-checks offline.
///   * BeginWriteCapture also records, per op, the dirtied page ids and a
///     pre-image (full page copy, taken at Fix time — before the caller
///     mutates) of every page the pre-image query approves. The WAL layer
///     logs those images so replay can roll shared pages back to their
///     committed content before re-running ops.
///
/// Write capture is THREAD-SCOPED: the capture state lives in a
/// thread-local slot, so concurrent writers (whose ops hold
/// disjoint segment write-latch sets) each capture exactly their own op's
/// pages with no shared state and no lock. The Fix/Unpin hot paths pay one
/// TLS load and a predicted-not-taken branch when no capture is active.
/// The per-frame pending sentinel is still shared state — but two ops can
/// only race on a frame if their latch sets overlap, which the store's
/// latching rules out.
class BufferManager {
 public:
  BufferManager(Volume* disk, BufferOptions options = {});
  ~BufferManager();

  /// recovery_lsn sentinel of a frame dirtied by an op whose WAL record has
  /// not been assigned yet (unevictable, unflushable).
  static constexpr uint64_t kPendingRecoveryLsn = ~0ull;

  /// What one op's write capture collected.
  struct WriteCapture {
    std::vector<PageId> dirtied;  ///< pages left with a pending LSN
    std::vector<std::pair<PageId, std::string>> preimages;
  };

  /// Installs (or clears, nullptr) the WAL-before-data hook consulted by
  /// write-back. Wire-up time only, not thread-safe against running I/O.
  void SetWalHook(WalOrderingHook* hook) { wal_hook_ = hook; }

  /// Pre-image filter: return false to skip copying a page's image (e.g.
  /// because the WAL already holds one for this checkpoint interval).
  /// Null = capture every page below the limit. Wire-up time only.
  void SetPreimageQuery(std::function<bool(PageId)> query) {
    preimage_query_ = std::move(query);
  }

  /// Starts THIS THREAD's write capture. Pages with id < preimage_limit get
  /// pre-imaged at Fix time. Thread-scoped: concurrent writer threads each
  /// capture their own op (their latch sets must be disjoint — see the
  /// class comment); captures do not nest on one thread.
  void BeginWriteCapture(PageId preimage_limit);

  /// Ends this thread's capture and returns what it collected. The dirtied
  /// frames stay pending until StampRecoveryLsn.
  WriteCapture TakeWriteCapture();

  /// Resolves the pending frames of `pages` to `lsn`, stamping the LSN into
  /// both the frame metadata and the page header bytes. Pages no longer
  /// resident are skipped (freed mid-op). lsn 0 only CLEARS the pending
  /// sentinel (frames become ordinary dirty pages, no page-header stamp) —
  /// the no-WAL path uses it to release captured frames, since 0 is never a
  /// real LSN (they start at 1).
  void StampRecoveryLsn(const std::vector<PageId>& pages, uint64_t lsn);

  /// Pins `id` in the pool, reading it from disk if absent (one single-page
  /// read call on miss). Multiple concurrent pins on one page are allowed.
  Result<PageGuard> Fix(PageId id);

  /// Fix variant for pages known to be freshly allocated and still
  /// all-zero on disk: on miss the frame is zero-filled in place instead of
  /// issuing a metered read call for bytes the caller is about to format.
  /// Counted as a normal fix/miss; only the pointless disk read disappears.
  /// Using it on a page with real on-disk contents would hand out a zeroed
  /// frame and clobber the page at write-back — callers must only pass page
  /// ids straight out of Volume::AllocateRun.
  Result<PageGuard> FixFresh(PageId id);

  /// Unpins a page; `dirty` marks it modified. Called by PageGuard.
  Status Unfix(PageId id, bool dirty);

  /// Ensures every listed page is resident, reading the missing ones
  /// according to `mode`. Does not pin. Duplicate ids are allowed.
  Status Prefetch(const std::vector<PageId>& ids, PrefetchMode mode);

  /// Writes all dirty pages (batched into chained calls of at most
  /// write_batch_size pages, shard by shard in page-id order) and marks
  /// them clean. Frames stay resident. Models the paper's write-back at
  /// "database disconnect". In concurrent mode, dirty pages that are
  /// pinned at flush time are deferred (their pin holder may be writing
  /// the bytes); they reach disk on a later flush or at eviction.
  Status FlushAll();

  /// Drops every unpinned frame after flushing dirty ones. Returns an error
  /// if any page is still pinned. Used between benchmark phases to start
  /// queries from a cold buffer; requires that no other thread is using the
  /// pool (the pin check and the drop are not one atomic step).
  Status DropAll();

  /// True if `id` currently occupies a frame. Takes the shard lock, so the
  /// answer is consistent even against a racing load/eviction (and the
  /// accessor is honest in single-threaded runs too).
  bool IsCached(PageId id) const;

  /// Number of resident pages (sums the shards under their locks).
  uint32_t resident_count() const;

  uint32_t frame_count() const { return options_.frame_count; }

  /// Number of independent shards (1 = unlocked single-user mode).
  uint32_t shard_count() const { return shard_count_; }

  /// Aggregated counters over all shards (exact: shard counters only move
  /// under their shard's lock).
  BufferStats stats() const;

  /// Zeroes all counters. Quiescent-only in concurrent mode.
  void ResetStats();

  Volume* disk() { return disk_; }

 private:
  static constexpr uint32_t kNullFrame = 0xFFFFFFFFu;
  static constexpr size_t kNotFound = ~static_cast<size_t>(0);

  /// Frame metadata only — the page bytes live in the contiguous pool_ at
  /// `pool_ + (shard.frame_base + index) * page_size`. prev/next thread the
  /// LRU/FIFO eviction order through the shard's frame array (front =
  /// coldest). All fields are guarded by the owning shard's mutex.
  struct Frame {
    PageId page_id = kInvalidPageId;
    uint32_t pins = 0;
    uint32_t prev = kNullFrame;
    uint32_t next = kNullFrame;
    bool dirty = false;
    bool referenced = false;  // CLOCK second-chance bit
    bool in_order = false;
  };

  /// One slot of a shard's open-addressing page table.
  struct TableSlot {
    PageId page_id = kInvalidPageId;  // kInvalidPageId = empty
    uint32_t frame = 0;
  };

  /// One independent slice of the pool. Everything in here is guarded by
  /// `mu` (never taken in single-shard mode); shard locks are never nested.
  /// Hot-path fields (table, frames, geometry) lead the layout so a Fix hit
  /// touches the first cache lines of the struct.
  struct Shard {
    /// Open-addressing page table: power-of-two capacity >= 2 * the shard's
    /// frame count (load factor <= 0.5), linear probing, backward-shift
    /// deletion.
    std::vector<TableSlot> table;
    std::vector<Frame> frames;  ///< shard-local indices
    size_t table_mask = 0;
    unsigned table_shift = 0;
    char* pool = nullptr;  ///< frame bytes of this shard (slice of pool_)
    /// &mu when the pool is concurrent, nullptr for the unlocked
    /// single-shard mode — set once at construction. Locking through this
    /// pointer lets the hot path (and PageGuard::Release, which has no
    /// manager pointer) skip the mode test entirely.
    std::mutex* lock_mu = nullptr;
    mutable std::mutex mu;
    std::vector<uint32_t> free_frames;
    uint32_t resident = 0;
    uint32_t order_head = kNullFrame;  ///< coldest (eviction candidate)
    uint32_t order_tail = kNullFrame;  ///< hottest
    uint32_t clock_hand = 0;
    /// LSN of the WAL record explaining each frame's dirty content
    /// (0 = none/clean, kPendingRecoveryLsn = mid-op, see the class
    /// comment). Parallel to `frames` but kept out of Frame — and out of
    /// the hot leading fields — because the LSN is only touched on
    /// write-back/flush/eviction/stamp paths, never on a Fix hit.
    std::vector<uint64_t> recovery_lsn;
    /// Owning manager — PageGuard::Unpin reaches the write-capture state
    /// through this (it has no manager pointer of its own). Cold: only the
    /// dirty-unpin path reads it.
    BufferManager* owner = nullptr;
    BufferStats stats;
    /// Reused write-back scratch (steady state allocates nothing).
    std::vector<uint32_t> scratch_frames;
    std::vector<PageId> scratch_ids;
    std::vector<const char*> scratch_srcs;
  };

  /// No-op lock in single-shard mode, shard mutex otherwise. The branch is
  /// on a constant-per-manager bool, so the unlocked hot path pays one
  /// predicted branch and nothing else.
  class ShardLock {
   public:
    explicit ShardLock(std::mutex* mu) : mu_(mu) {
      if (mu_ != nullptr) mu_->lock();
    }
    ~ShardLock() {
      if (mu_ != nullptr) mu_->unlock();
    }
    ShardLock(const ShardLock&) = delete;
    ShardLock& operator=(const ShardLock&) = delete;

   private:
    std::mutex* mu_;
  };

  ShardLock Lock(const Shard& shard) const { return ShardLock(shard.lock_mu); }

  static uint64_t Mix(PageId id) {
    return static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
  }

  /// Shard owning a page with hash `h`: the top shard_bits_ of the
  /// Fibonacci hash (one multiply, shared with the home-slot computation).
  /// The shard_bits_ == 0 case takes an explicit (perfectly predicted)
  /// branch rather than a branchless shift: in single-shard mode the shard
  /// pointer must not data-depend on the hash, or the table lookup stalls
  /// behind the multiply — this is what keeps the unlocked Fix hit path at
  /// the flat pool's latency.
  Shard& ShardOfHash(uint64_t h) {
    if (shard_bits_ == 0) return single_;
    return shards_[h >> (64 - shard_bits_)];
  }
  const Shard& ShardOfHash(uint64_t h) const {
    if (shard_bits_ == 0) return single_;
    return shards_[h >> (64 - shard_bits_)];
  }

  /// Shard `s` for whole-pool walks (flush, drop, stats).
  Shard& ShardAt(uint32_t s) { return shard_bits_ == 0 ? single_ : shards_[s]; }
  const Shard& ShardAt(uint32_t s) const {
    return shard_bits_ == 0 ? single_ : shards_[s];
  }
  Shard& ShardOf(PageId id) { return ShardOfHash(Mix(id)); }
  const Shard& ShardOf(PageId id) const { return ShardOfHash(Mix(id)); }

  char* FrameData(const Shard& shard, uint32_t frame_idx) {
    return shard.pool + static_cast<size_t>(frame_idx) * page_size_;
  }

  /// Home slot of a page with hash `h` in its shard's table: the hash bits
  /// directly below the shard-selection bits (so one shard's keys spread
  /// over its whole table). With one shard this is exactly the flat table's
  /// old home slot.
  size_t HomeSlotOfHash(const Shard& shard, uint64_t h) const {
    return static_cast<size_t>((h << shard_bits_) >> shard.table_shift);
  }
  size_t HomeSlot(const Shard& shard, PageId id) const {
    return HomeSlotOfHash(shard, Mix(id));
  }

  /// Table slot holding `id` whose hash is `h`, or kNotFound. Shard lock
  /// held.
  size_t FindSlotH(const Shard& shard, PageId id, uint64_t h) const {
    size_t slot = HomeSlotOfHash(shard, h);
    while (shard.table[slot].page_id != kInvalidPageId) {
      if (shard.table[slot].page_id == id) return slot;
      slot = (slot + 1) & shard.table_mask;
    }
    return kNotFound;
  }
  size_t FindSlot(const Shard& shard, PageId id) const {
    return FindSlotH(shard, id, Mix(id));
  }

  void TableInsert(Shard& shard, PageId id, uint32_t frame_idx);
  void TableErase(Shard& shard, PageId id);

  // PageGuard::Release unpins directly through its shard pointer (no hash,
  // no page-table lookup, no manager detour). Safe because a pinned page
  // cannot be evicted, so the page->frame binding (and the shard) is stable
  // while the guard lives.
  friend class PageGuard;

  // PrefetchStream installs completed async batches through Load() under
  // the shard locks, exactly like Prefetch does inline.
  friend class PrefetchStream;

  /// Loads `id` into a frame of `shard` (evicting if needed) without
  /// counting a fix. `already_read` supplies page bytes read by a chained
  /// call (a zero-copy view into the volume's extents), nullptr to read
  /// from disk (single-page call, straight into the frame). Shard lock held.
  Result<uint32_t> Load(Shard& shard, PageId id, const char* already_read);

  /// Load variant for FixFresh: installs a zero-filled frame with no disk
  /// read (the page is fresh, its on-disk image is all zeros).
  Result<uint32_t> LoadFresh(Shard& shard, PageId id);

  /// Returns a free frame index, evicting a victim if the shard is full.
  Result<uint32_t> GrabFrame(Shard& shard);

  /// Chooses an eviction victim among the shard's unpinned frames, or an
  /// error when all of them are pinned.
  Result<uint32_t> PickVictim(Shard& shard);

  /// Cleans up to write_batch_size cold dirty unpinned pages of `shard`
  /// (always including `must_include`) with one chained write call.
  Status WriteBackBatch(Shard& shard, uint32_t must_include);

  /// Writes the dirty frames listed in `shard.scratch_frames` (chained,
  /// batched, page-id order) and marks them clean. Shared by
  /// FlushAll/WriteBackBatch.
  Status WriteFrameBatchSorted(Shard& shard, size_t batch_limit);

  /// Policy bookkeeping on access / load.
  void TouchFrame(Shard& shard, uint32_t frame_idx);
  void EnqueueFrame(Shard& shard, uint32_t frame_idx);
  void RemoveFromOrder(Shard& shard, uint32_t frame_idx);

  /// Marks a just-dirtied frame pending and records its page id (once per
  /// op) in the calling thread's capture. Shard lock held. Kept out of line
  /// so the cold capture tail does not bloat the inlined Fix/Unpin paths.
  [[gnu::noinline]] [[gnu::cold]] void CaptureDirtyLocked(Shard& shard,
                                                          uint32_t frame_idx,
                                                          PageId id);

  /// Copies the page's pre-op image into the calling thread's capture if
  /// the page is below the pre-image limit, not yet imaged this op, and the
  /// query approves. Shard lock held; called at Fix before the caller can
  /// mutate the frame. Out of line for the same reason as above.
  [[gnu::noinline]] [[gnu::cold]] void MaybeCapturePreimageLocked(
      Shard& shard, uint32_t frame_idx, PageId id);

  /// One op's write-capture state; lives in a thread-local slot so each
  /// writer thread captures exactly its own op.
  struct CaptureState {
    PageId preimage_limit = 0;
    WriteCapture out;
  };

  /// This thread's active write capture (null = off, the common case). A
  /// plain thread-local pointer, static rather than per-manager, because a
  /// thread applies one op against one store at a time and the store
  /// brackets the capture tightly.
  static thread_local CaptureState* write_capture_;
  /// Backing storage for write_capture_ (avoids a per-op allocation; the
  /// vectors inside keep their capacity across ops on the same thread).
  static thread_local CaptureState write_capture_slot_;

  Volume* disk_;
  BufferOptions options_;
  uint32_t page_size_;
  uint32_t shard_count_ = 1;
  unsigned shard_bits_ = 0;
  bool concurrent_ = false;  ///< shard mutexes engaged
  /// Frame arena allocation (frame_count * page_size bytes, plus alignment
  /// slack) and the possibly-realigned base the frames actually start at.
  std::unique_ptr<char[]> pool_owner_;
  char* pool_ = nullptr;
  /// Single-shard mode uses the inline `single_` (its fields are
  /// this-relative, keeping the unlocked Fix hit path at the flat pool's
  /// latency); sharded mode uses the heap array. Exactly one is live.
  Shard single_;
  std::unique_ptr<Shard[]> shards_;
  /// Pre-image filter for write captures (see SetPreimageQuery). Shared by
  /// all writer threads; WalManager::NeedsPreimage is internally locked.
  std::function<bool(PageId)> preimage_query_;
  WalOrderingHook* wal_hook_ = nullptr;
};

/// Completion-driven prefetch: a per-thread pipeline keeping up to `depth`
/// chained read batches in flight on an async-capable volume.
///
/// Push() submits one batch (an object's missing pages) through
/// Volume::SubmitReadChained and returns without waiting for the device;
/// when all `depth` pipeline slots are occupied, the oldest batch is
/// completed — its pages installed into the pool — before the new one is
/// submitted. The device therefore works on up to `depth` chained reads
/// from this thread while the thread assembles previously fetched objects:
/// the paper's chained-I/O fetch shapes, overlapped instead of serialized.
///
/// Volumes without an async path (supports_async_read() == false: mem,
/// mmap, the decorators) degrade to one blocking BufferManager::Prefetch
/// per Push — same I/O-call accounting, no pipeline. Accounting on the
/// async path is identical too: SubmitReadChained meters one read call and
/// N page reads at submit, exactly what the ReadChained of a blocking
/// prefetch would have charged.
///
/// Threading: a PrefetchStream is strictly per-thread (io_uring completion
/// tickets are thread-local — submit and complete must happen on the same
/// thread), but many threads may each run their own stream over one shared
/// sharded BufferManager. Destruction drains in-flight batches.
class PrefetchStream {
 public:
  /// Binds to `buffer` with `depth` pipeline slots (minimum 1). Each slot's
  /// staging buffer is registered with the volume as fixed-I/O memory, so a
  /// direct backend with registered-buffer support DMAs into it without a
  /// per-I/O pin.
  explicit PrefetchStream(BufferManager* buffer, uint32_t depth = 4);
  ~PrefetchStream();
  PrefetchStream(const PrefetchStream&) = delete;
  PrefetchStream& operator=(const PrefetchStream&) = delete;

  /// Ensures every listed page will be resident once its batch completes:
  /// filters out pages already cached or already in flight on this stream,
  /// submits the rest as one chained read, and pipelines the completion.
  /// Completed batches install their pages lazily — at the latest by the
  /// Drain() or Push() that recycles their slot — so call Drain() before
  /// fixing pages that must not be re-read from the device.
  Status Push(const std::vector<PageId>& ids);

  /// Completes every in-flight batch and installs its pages. All slots are
  /// reaped regardless of errors; the first error wins.
  Status Drain();

  /// True when the volume accepted the async contract (the stream actually
  /// pipelines; false = blocking-Prefetch degradation).
  bool async_active() const { return async_; }

  /// Pipeline slots.
  uint32_t depth() const { return static_cast<uint32_t>(slots_.size()); }

  /// Batches submitted asynchronously so far (in flight + completed).
  uint64_t async_batches() const { return async_batches_; }

 private:
  struct Slot {
    AlignedBuffer staging;
    /// Staging base currently registered with the volume (null = none);
    /// re-registered when Reserve() moves the allocation.
    char* registered_base = nullptr;
    std::vector<PageId> ids;
    std::vector<char*> ptrs;
    uint64_t ticket = 0;
    bool in_flight = false;
  };

  /// Reaps `slot`: CompleteRead, then install the pages into the pool.
  /// Clears in_flight even on error.
  Status Complete(Slot& slot);

  BufferManager* buffer_;
  Volume* disk_;
  bool async_;
  uint64_t async_batches_ = 0;
  std::vector<Slot> slots_;
  size_t next_ = 0;  ///< ring cursor: next slot to submit into
  std::vector<PageId> scratch_missing_;  ///< reused Push working set
};

// The guard teardown trio is defined inline (PageGuard is a friend, so the
// shard internals are visible here): a guard drop is half of every
// fix/unfix pair, and keeping these bodies header-visible lets them inline
// into callers the same way the Fix hit path does. The cold write-capture
// tail stays out of line in CaptureDirtyLocked.

inline void PageGuard::Unpin() {
  // Pins and the dirty bit move only under the owning shard's lock (a
  // no-op pointer in single-shard mode). Unfix of a held guard cannot
  // fail — the page is pinned by this very guard.
  AssertOwningThread();
  auto* shard = static_cast<BufferManager::Shard*>(shard_);
  BufferManager::ShardLock lock(shard->lock_mu);
  BufferManager::Frame& frame = shard->frames[frame_idx_];
  --frame.pins;
  if (dirty_) {
    frame.dirty = true;
    if (__builtin_expect(BufferManager::write_capture_ != nullptr, false)) {
      shard->owner->CaptureDirtyLocked(*shard, frame_idx_, id_);
    }
  }
}

inline void PageGuard::Release() {
  if (shard_ != nullptr) {
    Unpin();
    shard_ = nullptr;
    id_ = kInvalidPageId;
    data_ = nullptr;
    dirty_ = false;
  }
}

inline PageGuard::~PageGuard() {
  if (shard_ != nullptr) {
    Unpin();
  }
}

}  // namespace starfish
