#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "disk/paged_volume.h"
#include "disk/volume_meta.h"

/// \file direct_volume.h
/// The real-device disk volume: O_DIRECT file I/O, batched via io_uring.
///
/// DirectVolume is the backend that makes the paper's *physical* I/O claim
/// testable on hardware. The mem and mmap backends satisfy every read from
/// RAM or the kernel page cache, so their wall-clock numbers say nothing
/// about device latency; DirectVolume opens one file per extent with
/// O_DIRECT, so every ReadRun/WriteRun is a real device transfer that
/// bypasses the page cache entirely — a buffer-pool miss costs what the
/// hardware charges, which is what the out-of-core bench measures against
/// the Equation-1 model (disk_timing.h).
///
/// On-disk format: IDENTICAL to MmapVolume —
///
///     <dir>/volume.meta      geometry + allocator journal (volume_meta.h)
///     <dir>/extent_000000    page images of extent 0 (ftruncated to size)
///     <dir>/extent_000001    ...
///
/// so a directory written by either persistent backend reopens under the
/// other, sf_fsck verifies both without knowing which wrote it, and the
/// PR 4 shadow-catalog commit protocol (write-back -> Sync -> catalog
/// generation -> CURRENT repoint) extends to this backend unchanged.
///
/// I/O submission: reads/writes are split into per-extent segments and
/// submitted as ONE batch — through an io_uring when the kernel provides
/// one (probed at Open; containers often seccomp it away), otherwise a
/// plain pread/pwrite loop. Either way the batch counts as one I/O call in
/// the meter, preserving the paper's call/page accounting.
///
/// Ring model (see docs/VOLUMES.md): every submitting thread lazily gets
/// its OWN io_uring, so N reader threads keep N submission queues feeding
/// the device with zero software serialization. Rings pre-register
/// long-lived I/O memory (RegisterIoMemory — the buffer pool registers its
/// frame arena) as fixed buffers and the extent fd table as registered
/// files, cutting per-I/O pinning and fd-reference cost; every feature
/// degrades independently (registration refused -> plain SQEs; ring
/// refused -> pread/pwrite), and the accessors (io_uring_active(),
/// registered_buffers_active(), ...) report what is actually in effect.
/// Every call submits its batch and waits for it before returning, so a
/// ring never holds more than one batch; the Volume async pair keeps its
/// synchronous base behaviour here.
///
/// Alignment: O_DIRECT requires transfers aligned to the device's DMA
/// granularity. Open() probes the filesystem (statx STATX_DIOALIGN where
/// available, plus a trial write) and rejects geometries the device cannot
/// do (page_size must be a multiple of the device's offset alignment;
/// tmpfs/overlayfs reject O_DIRECT outright -> NotSupported — callers and
/// tests skip, see docs/VOLUMES.md). Caller buffers need no alignment:
/// misaligned ones bounce through an internal aligned scratch. Aligned
/// buffers (the buffer pool aligns its frame arena to
/// io_buffer_alignment()) DMA directly.
///
/// No memory image exists, so supports_zero_copy() is false: the zero-copy
/// calls return NotSupported and PeekPage returns nullptr. The buffer pool
/// detects this and reads through the copying calls into its own frames.
///
/// Thread safety: same contract as every backend (see volume.h). The
/// pread/pwrite path is naturally concurrent; per-thread rings make the
/// io_uring path concurrent without any shared lock. Ring teardown is
/// centralized: the volume's ring registry owns every ring it handed out,
/// so closing the volume closes all ring fds even when the submitting
/// threads are still alive (their thread-local slots just go stale and are
/// swept on next use), and a thread exiting early only drops its reference
/// — the registry reaps the unused ring on the next ring creation.

namespace starfish {

/// DirectVolume construction knobs (beyond the shared DiskOptions).
struct DirectVolumeOptions {
  /// Try to set up io_uring at Open; silently falls back to pread/pwrite
  /// when the kernel refuses (ENOSYS, seccomp EPERM, ...). Force false to
  /// test/measure the fallback path.
  bool use_io_uring = true;

  /// Submission-queue depth of each ring; batches larger than this are
  /// submitted in chunks.
  uint32_t ring_depth = 64;
};

/// An O_DIRECT file-per-extent volume with I/O accounting and persistence.
class DirectVolume final : public PagedVolume {
 public:
  /// Opens (or creates) the volume backed by directory `dir`. Returns
  /// NotSupported when the directory's filesystem rejects O_DIRECT or the
  /// device's DMA alignment cannot serve `options.page_size`; the recorded
  /// geometry wins over `options` when the directory already holds a
  /// volume (written by this backend or by MmapVolume).
  static Result<std::unique_ptr<DirectVolume>> Open(
      const std::string& dir, DiskOptions options = {},
      DirectVolumeOptions direct_options = {});

  /// Cheap probe: would Open(dir, {page_size}) succeed on this filesystem?
  /// Tests and CI use it to skip direct-backend coverage on filesystems
  /// without O_DIRECT support (tmpfs, overlayfs) instead of failing.
  static bool SupportedAt(const std::string& dir,
                          uint32_t page_size = kDefaultPageSize);

  ~DirectVolume() override;

  VolumeKind kind() const override { return VolumeKind::kDirect; }
  bool supports_zero_copy() const override { return false; }
  uint32_t io_buffer_alignment() const override { return dio_mem_align_; }

  Status ReadRun(PageId first, uint32_t count, char* out) override;
  Status WriteRun(PageId first, uint32_t count, const char* src) override;
  Status ReadChained(const std::vector<PageId>& ids,
                     const std::vector<char*>& outs) override;
  Status WriteChained(const std::vector<PageId>& ids,
                      const std::vector<const char*>& srcs) override;

  /// Registers `[base, base+bytes)` for fixed-buffer I/O on every ring
  /// (existing rings re-register lazily, before their next idle
  /// submission). The memory must outlive the registration.
  void RegisterIoMemory(const void* base, size_t bytes) override;
  void UnregisterIoMemory(const void* base) override;

  /// No memory image: NotSupported (see supports_zero_copy()).
  Status ReadRunZeroCopy(PageId first, uint32_t count,
                         std::vector<const char*>* views) override;
  Status ReadChainedZeroCopy(const std::vector<PageId>& ids,
                             std::vector<const char*>* views) override;
  /// No memory image: nullptr for every id.
  const char* PeekPage(PageId /*id*/) const override { return nullptr; }

  /// Unmetered single-page device write (FaultVolume's overlay flush).
  Status WritePageUnmetered(PageId id, const char* src) override;

  /// fdatasync()s every extent file (O_DIRECT data bypasses the cache, but
  /// block allocations do not), fsyncs the directory when extents were
  /// added, then checkpoints the allocator journal.
  Status Sync() override;

  /// Backing directory of this volume.
  const std::string& dir() const { return dir_; }

  /// True when batches go through an io_uring (false = pread/pwrite
  /// fallback, either by option or because the kernel refused a ring).
  bool io_uring_active() const {
    return ring_available_.load(std::memory_order_relaxed);
  }

  /// True when the CALLING thread's ring currently has fixed buffers /
  /// registered files in effect (creates the thread's ring on first use,
  /// like any submission would). Both are per-ring states: a ring that
  /// failed a registration runs on plain SQEs while others use the fast
  /// path.
  bool registered_buffers_active();
  bool registered_files_active();

  /// Rings currently owned by the registry (tests: bounded by the number
  /// of distinct submitting threads; 0 until the first submission).
  size_t ring_count() const;

 private:
  /// One device transfer: `len` bytes at file offset `off` of extent
  /// `extent` (fd `fd`), to/from `buf`.
  struct IoOp {
    int fd;
    uint32_t extent;
    uint64_t off;
    char* buf;
    uint32_t len;
  };

  struct IoRing;        // raw-syscall io_uring wrapper (direct_volume.cc)
  struct RingRegistry;  // all rings handed out + registered I/O memory

  DirectVolume(std::string dir, DiskOptions options,
               DirectVolumeOptions direct_options, uint32_t dio_mem_align);

  /// PagedVolume hook: creates + opens extent files up to `extent_count`.
  Status EnsureExtentsLocked(size_t extent_count) override;

  /// Opens extent file `index` with O_DIRECT, creating/ftruncating it to
  /// extent size when `create` is set. Publishes the fd.
  Status OpenExtentFd(size_t index, bool create);

  std::string ExtentPath(size_t index) const;

  /// fd of the extent holding `id` plus the in-file offset of the page.
  /// Valid after a successful CheckRange (the acquire there pairs with the
  /// release publication of the fd).
  int FdOf(PageId id, uint64_t* off) const;

  /// True when `buf` can be handed to O_DIRECT as-is.
  bool DioEligible(const void* buf) const {
    return reinterpret_cast<uintptr_t>(buf) % dio_mem_align_ == 0;
  }

  /// Splits a page run into per-extent IoOps targeting `base`.
  void BuildRunOps(PageId first, uint32_t count, char* base,
                   std::vector<IoOp>* ops) const;

  /// The calling thread's usable ring (created on first use), or nullptr
  /// when the thread must use the pread/pwrite path.
  IoRing* AcquireRing();

  /// Executes one batch as a single logical I/O call: io_uring submission
  /// when a ring is up, pread/pwrite loop otherwise. Does not touch the
  /// meter (callers count one call per batch).
  Status Execute(const std::vector<IoOp>& ops, bool write);

  /// The pread/pwrite path (also finishes short io_uring completions).
  static Status ExecuteSync(const IoOp& op, bool write, uint32_t done);

  // 65536 extent fds cap the volume at 256 GiB with default 4 MiB extents
  // — far beyond experiment scale; a fixed-shape table keeps the read path
  // lock-free (the acquire bounds check orders readers after publication).
  static constexpr size_t kMaxExtents = size_t{1} << 16;

  std::string dir_;
  uint32_t dio_mem_align_;  ///< device DMA buffer alignment (>= 512)
  DirectVolumeOptions direct_options_;
  std::unique_ptr<std::atomic<int>[]> fds_;  ///< kMaxExtents slots, -1 empty
  size_t open_extents_ = 0;                  ///< guarded by alloc_mu_
  /// Extent count whose fds are published (release; registration snapshots
  /// pair with an acquire load). Trails open_extents_ by design: it is
  /// readable without alloc_mu_.
  std::atomic<uint32_t> published_extents_{0};
  /// Extent files created since the last directory fsync: their directory
  /// entries are not durable until Sync.
  std::atomic<bool> dir_dirty_{false};
  /// io_uring probed usable at Open (kernel + opcodes). Individual threads
  /// can still fail ring creation later and fall back alone.
  std::atomic<bool> ring_available_{false};
  /// Identifies this volume in thread-local ring slots; never reused, so a
  /// slot left over from a destroyed volume can never match a live one.
  uint64_t serial_ = 0;
  std::shared_ptr<RingRegistry> registry_;
  AllocatorJournal journal_;
};

}  // namespace starfish
