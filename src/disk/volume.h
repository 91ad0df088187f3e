#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "disk/io_stats.h"
#include "disk/page.h"
#include "util/status.h"

/// \file volume.h
/// The abstract disk volume underneath the buffer pool.
///
/// A Volume stands in for the physical disk of the DASDBS testbed. It stores
/// page images and meters every transfer. The unit of metering follows the
/// paper: a *run* of consecutive pages moved by one request is a single I/O
/// call; each page in the run is one page I/O. DASDBS issued separate calls
/// for the root page, the remaining header pages and the data pages of a
/// complex record — the storage layer reproduces that call pattern on top of
/// ReadRun/WriteRun.
///
/// Page ids are dense and increase in allocation order; AllocateRun yields
/// physically contiguous pages, which is how segments implement clustering.
///
/// Backends (selected via VolumeKind / CreateVolume; see docs/VOLUMES.md
/// for the selection matrix):
///   * **MemVolume** (mem_volume.h) — a chunked in-memory arena; the
///     default, equivalent to the paper's simulated drum.
///   * **MmapVolume** (mmap_volume.h) — one real memory-mapped file per
///     extent, so volumes can exceed RAM and persist across process
///     restarts.
///   * **DirectVolume** (direct_volume.h) — one O_DIRECT file per extent:
///     every page transfer is a real device I/O that bypasses the kernel
///     page cache (batched through io_uring where available). Same on-disk
///     format as MmapVolume.
///   * **FaultVolume** (fault_volume.h) — a fault-injecting decorator (the
///     crash-matrix test substrate).
///
/// The memory-addressable backends (mem, mmap) give a zero-copy guarantee:
/// extents never move while the volume lives, so PeekPage / ReadRunZeroCopy
/// / ReadChainedZeroCopy hand out pointers that stay valid for the lifetime
/// of the volume. The direct backend keeps no memory image — callers probe
/// supports_zero_copy() and fall back to the copying calls (the buffer pool
/// does this automatically, reading straight into its aligned frames).

namespace starfish {

/// Storage backend selector.
enum class VolumeKind {
  kMem,     ///< in-memory chunked arena (default; nothing persists)
  kMmap,    ///< one memory-mapped file per extent; persists across runs
  kDirect,  ///< one O_DIRECT file per extent; persists, bypasses page cache
};

/// Human-readable backend name ("mem" / "mmap" / "direct").
std::string ToString(VolumeKind kind);

/// Geometry options for a volume.
struct DiskOptions {
  /// Physical page size in bytes. DASDBS default: 2048.
  uint32_t page_size = kDefaultPageSize;

  /// Arena extent size in bytes; each extent stores
  /// max(1, extent_bytes / page_size) contiguous pages.
  uint32_t extent_bytes = 4u << 20;
};

/// An abstract disk volume with I/O accounting.
///
/// Concurrency contract (the substrate of the store's single-writer /
/// multi-reader model):
///   * Read operations (ReadRun / ReadChained / the zero-copy variants /
///     PeekPage) may run concurrently from any number of threads, also
///     concurrently with AllocateRun — the extent directory publishes new
///     extents atomically and established page ids never move.
///   * AllocateRun / Free are serialized internally (a small allocator lock
///     around extent-vector growth), so concurrent allocators are safe and
///     zero-copy read views handed out earlier stay valid.
///   * Writes to *disjoint* page sets may run concurrently (the sharded
///     buffer pool writes back each page from the one shard that owns it).
///     Concurrent writes to the same page, or a write racing a read of the
///     same page, are the caller's data race, as on a real disk.
///   * stats() aggregates atomic counters and is safe from any thread.
class Volume {
 public:
  virtual ~Volume() = default;

  /// Which backend this is.
  virtual VolumeKind kind() const = 0;

  /// Usable page size of this volume.
  virtual uint32_t page_size() const = 0;

  /// Pages per arena extent (geometry detail, exposed for tests).
  virtual uint32_t pages_per_extent() const = 0;

  /// Number of pages ever allocated (including freed ones).
  virtual uint64_t page_count() const = 0;

  /// Number of currently allocated (not freed) pages.
  virtual uint64_t live_page_count() const = 0;

  /// Allocates one zero-filled page and returns its id.
  Result<PageId> Allocate() { return AllocateRun(1); }

  /// Allocates `n` physically contiguous zero-filled pages; returns the id
  /// of the first (ids first .. first+n-1 are all valid). Fails when the
  /// backend cannot grow (e.g. the mmap backend's filesystem is full).
  virtual Result<PageId> AllocateRun(uint32_t n) = 0;

  /// Returns a page to the allocator. Freed pages keep their id (ids are
  /// never reused: simplifies reasoning about clustering and is harmless for
  /// experiment-scale volumes).
  virtual Status Free(PageId id) = 0;

  /// Reads `count` consecutive pages starting at `first` into `out`
  /// (`count * page_size` bytes). Counts one read call, `count` page reads.
  virtual Status ReadRun(PageId first, uint32_t count, char* out) = 0;

  /// Writes `count` consecutive pages starting at `first` from `src`.
  /// Counts one write call and `count` page writes.
  virtual Status WriteRun(PageId first, uint32_t count, const char* src) = 0;

  /// True when this backend keeps page images addressable in memory, i.e.
  /// the zero-copy calls (ReadRunZeroCopy / ReadChainedZeroCopy) and
  /// PeekPage work. Backends that do real device I/O (DirectVolume) return
  /// false: their zero-copy calls return NotSupported and PeekPage returns
  /// nullptr, and callers route through the copying calls instead.
  virtual bool supports_zero_copy() const { return true; }

  /// Byte alignment this backend wants for I/O buffers (0 = none). Direct
  /// backends report the device's DMA alignment; the storage engine raises
  /// BufferOptions::frame_alignment to it so page reads can DMA straight
  /// into buffer-pool frames. Misaligned buffers still work everywhere —
  /// the direct backend bounces them internally — this is a performance
  /// hint, not a correctness requirement.
  virtual uint32_t io_buffer_alignment() const { return 0; }

  /// Zero-copy variant of ReadRun: instead of copying into a caller buffer,
  /// appends one stable extent pointer per page to `views` (cleared first).
  /// Same accounting as ReadRun (one read call, `count` page reads). The
  /// pointers remain valid for the lifetime of the volume; the buffer
  /// manager uses this to copy straight into its frames with no staging
  /// buffer in between. NotSupported when supports_zero_copy() is false.
  virtual Status ReadRunZeroCopy(PageId first, uint32_t count,
                                 std::vector<const char*>* views) = 0;

  /// Reads a batch of (not necessarily contiguous) pages as a single chained
  /// I/O call, e.g. DASDBS fetching all data pages of one object in one
  /// request. Counts one read call and `ids.size()` page reads.
  virtual Status ReadChained(const std::vector<PageId>& ids,
                             const std::vector<char*>& outs) = 0;

  /// Zero-copy variant of ReadChained: appends one stable extent pointer per
  /// page to `views` (cleared first). Same accounting as ReadChained.
  virtual Status ReadChainedZeroCopy(const std::vector<PageId>& ids,
                                     std::vector<const char*>* views) = 0;

  /// The async read pair: SubmitReadChained reads `ids[i]` into `outs[i]`
  /// (each `page_size()` bytes) exactly like ReadChained — one read call,
  /// `ids.size()` page reads — and returns the completed ticket 0;
  /// CompleteRead is a no-op and supports_async_read() is false. No
  /// backend in src/ overrides these and nothing in src/ calls them: every
  /// model prefetches through the blocking BufferManager::Prefetch. They
  /// stay only because perfbench's TracingVolume (perfbench/src/tracing.h)
  /// overrides all three; dropping them needs the matching change there.
  virtual bool supports_async_read() const { return false; }

  virtual Result<uint64_t> SubmitReadChained(const std::vector<PageId>& ids,
                                             const std::vector<char*>& outs) {
    STARFISH_RETURN_NOT_OK(ReadChained(ids, outs));
    return uint64_t{0};
  }

  virtual Status CompleteRead(uint64_t ticket) {
    (void)ticket;
    return Status::OK();
  }

  /// Hints that `[base, base+bytes)` is long-lived I/O memory (the buffer
  /// pool's frame arena). Backends that can pre-register buffers with the
  /// kernel (io_uring fixed buffers) use this to skip per-I/O page pinning;
  /// everyone else ignores it. Never required for correctness; unknown or
  /// unregistered buffers always work. Pair with UnregisterIoMemory before
  /// the memory is freed (the registration holds no reference).
  virtual void RegisterIoMemory(const void* base, size_t bytes) {
    (void)base;
    (void)bytes;
  }

  /// Retracts a RegisterIoMemory hint (match by `base`).
  virtual void UnregisterIoMemory(const void* base) { (void)base; }

  /// Writes a batch of (not necessarily contiguous) pages as a single
  /// chained I/O call (DASDBS batches write-back at buffer overflow /
  /// disconnect). Counts one write call and `ids.size()` page writes.
  virtual Status WriteChained(const std::vector<PageId>& ids,
                              const std::vector<const char*>& srcs) = 0;

  /// Unmetered read-only view of a page's bytes, or nullptr when `id` is out
  /// of range. Debug/test accessor: it deliberately bypasses the I/O
  /// counters, so production paths must go through the metered calls above.
  /// Backends without a memory image (supports_zero_copy() == false) return
  /// nullptr for every id.
  virtual const char* PeekPage(PageId id) const = 0;

  /// Applies `page_size()` bytes to the medium image of `id` WITHOUT
  /// touching the I/O meter. Test/recovery seam: FaultVolume flushes its
  /// volatile write overlay through this (the write was already counted
  /// when it entered the "disk cache"; flushing cache to platter is not a
  /// second transfer). The base implementation patches the memory image via
  /// PeekPage; backends without one (DirectVolume) override with an
  /// unmetered device write.
  virtual Status WritePageUnmetered(PageId id, const char* src);

  /// Forces durable state (page images + allocator metadata) to storage.
  /// No-op for backends without persistence.
  virtual Status Sync() { return Status::OK(); }

  /// Reopen-time allocator reconciliation: declares `live` (with possible
  /// duplicates) to be EXACTLY the allocated pages; every other page at or
  /// below page_count() becomes freed, and pages in `live` that a torn
  /// checkpoint left marked freed become live again. The committed catalog
  /// is the source of truth for what is referenced — this is how a store
  /// falling back to an older catalog generation reclaims the orphans of an
  /// uncommitted checkpoint. Only meaningful for allocator-backed volumes;
  /// the base implementation rejects the call.
  virtual Status ReconcileLive(const std::vector<PageId>& live) {
    (void)live;
    return Status::NotSupported("volume has no reconcilable allocator");
  }

  /// Cumulative transfer counters (a snapshot of the volume's atomic
  /// meter; see AtomicIoStats on concurrent-read semantics).
  virtual IoStats stats() const = 0;

  /// Zeroes the counters (page contents are unaffected).
  virtual void ResetStats() = 0;
};

/// Constructs a volume of the given kind. `path` is the backing directory of
/// the persistent backends (mmap/direct: created if absent; reopened if it
/// already holds a volume — the two share one on-disk format) and ignored by
/// the mem backend. kDirect returns NotSupported on filesystems that reject
/// O_DIRECT (tmpfs, overlayfs); see docs/VOLUMES.md.
Result<std::unique_ptr<Volume>> CreateVolume(VolumeKind kind,
                                             DiskOptions options = {},
                                             const std::string& path = "");

}  // namespace starfish
