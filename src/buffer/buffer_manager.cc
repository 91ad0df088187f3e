#include "buffer/buffer_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/aligned_buffer.h"

namespace starfish {

namespace {

/// Prefetch's per-thread staging area (backends without zero-copy views)
/// is aligned generously so a direct backend can DMA into it without
/// bouncing a second time.
constexpr size_t kStagingAlign = 4096;

}  // namespace

std::string BufferStats::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "BufferStats{fixes=%llu, hits=%llu, misses=%llu, "
                "prefetched=%llu, evictions=%llu, write_backs=%llu}",
                static_cast<unsigned long long>(fixes),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(prefetched_pages),
                static_cast<unsigned long long>(evictions),
                static_cast<unsigned long long>(write_backs));
  return buf;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this == &other) return *this;
  // Drop our own pin first so a guard that is assigned over never leaks it.
  Release();
  shard_ = std::exchange(other.shard_, nullptr);
  id_ = std::exchange(other.id_, kInvalidPageId);
  data_ = std::exchange(other.data_, nullptr);
  frame_idx_ = std::exchange(other.frame_idx_, 0);
  dirty_ = std::exchange(other.dirty_, false);
#ifndef NDEBUG
  owner_ = other.owner_;
#endif
  return *this;
}

namespace {

/// Smallest power of two >= 2 * n, as (capacity, bits).
void TableGeometry(uint32_t n, size_t* capacity, unsigned* bits) {
  *capacity = 8;
  *bits = 3;
  while (*capacity < 2 * static_cast<size_t>(n)) {
    *capacity <<= 1;
    ++*bits;
  }
}

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

}  // namespace

BufferManager::BufferManager(Volume* disk, BufferOptions options)
    : disk_(disk), options_(options), page_size_(disk->page_size()) {
  if (options_.frame_count == 0) options_.frame_count = 1;
  if (options_.write_batch_size == 0) options_.write_batch_size = 1;

  // shard_count == 1 is the paper-exact unlocked pool; anything else engages
  // the shard mutexes. 0 = pick from the hardware.
  concurrent_ = options_.shard_count != 1;
  uint32_t shards = options_.shard_count;
  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    shards = RoundUpPow2(hw == 0 ? 4u : 4u * hw);
  }
  shards = RoundUpPow2(shards);
  while (shards > 1 && shards > options_.frame_count) shards /= 2;
  shard_count_ = shards;
  options_.shard_count = concurrent_ ? shards : 1;
  shard_bits_ = 0;
  while ((1u << shard_bits_) < shard_count_) ++shard_bits_;

  // The frame arena, optionally over-allocated so its base can be aligned
  // for direct-I/O backends (see BufferOptions::frame_alignment).
  const size_t pool_bytes =
      static_cast<size_t>(options_.frame_count) * page_size_;
  uint32_t align = options_.frame_alignment;
  if (align > 1) align = RoundUpPow2(align);
  options_.frame_alignment = align;
  pool_owner_ = std::make_unique<char[]>(pool_bytes + (align > 1 ? align : 0));
  pool_ = pool_owner_.get();
  if (align > 1) {
    const uintptr_t base_addr = reinterpret_cast<uintptr_t>(pool_);
    pool_ += (align - base_addr % align) % align;
  }
  // Hand the frame arena to the volume as candidate fixed-I/O memory: a
  // direct backend with registered-buffer support then DMAs Fix-miss reads
  // straight into frames without a per-I/O pin. No-op on other backends.
  disk_->RegisterIoMemory(pool_, pool_bytes);
  if (shard_count_ > 1) shards_ = std::make_unique<Shard[]>(shard_count_);
  const uint32_t base = options_.frame_count / shard_count_;
  const uint32_t extra = options_.frame_count % shard_count_;
  uint32_t next_frame = 0;
  for (uint32_t s = 0; s < shard_count_; ++s) {
    Shard& shard = ShardAt(s);
    const uint32_t n = base + (s < extra ? 1 : 0);
    shard.owner = this;
    shard.pool = pool_ + static_cast<size_t>(next_frame) * page_size_;
    shard.lock_mu = concurrent_ ? &shard.mu : nullptr;
    next_frame += n;
    shard.frames.resize(n);
    shard.recovery_lsn.assign(n, 0);
    shard.free_frames.reserve(n);
    for (uint32_t i = n; i > 0; --i) {
      shard.free_frames.push_back(i - 1);
    }
    size_t capacity = 0;
    unsigned bits = 0;
    TableGeometry(n, &capacity, &bits);
    shard.table.resize(capacity);
    shard.table_mask = capacity - 1;
    shard.table_shift = 64 - bits;
  }
}

BufferManager::~BufferManager() {
  // Best effort: persist dirty pages so a dropped manager does not silently
  // lose updates in examples/tests.
  (void)FlushAll();
  disk_->UnregisterIoMemory(pool_);
}

void BufferManager::TableInsert(Shard& shard, PageId id, uint32_t frame_idx) {
  size_t slot = HomeSlot(shard, id);
  while (shard.table[slot].page_id != kInvalidPageId) {
    slot = (slot + 1) & shard.table_mask;
  }
  shard.table[slot].page_id = id;
  shard.table[slot].frame = frame_idx;
  ++shard.resident;
}

void BufferManager::TableErase(Shard& shard, PageId id) {
  size_t hole = FindSlot(shard, id);
  if (hole == kNotFound) return;
  // Backward-shift deletion: pull displaced entries over the hole so every
  // remaining key stays on its probe path (no tombstones to scan past).
  size_t probe = hole;
  for (;;) {
    probe = (probe + 1) & shard.table_mask;
    if (shard.table[probe].page_id == kInvalidPageId) break;
    const size_t home = HomeSlot(shard, shard.table[probe].page_id);
    const bool home_between_hole_and_probe =
        ((probe - home) & shard.table_mask) < ((probe - hole) & shard.table_mask);
    if (!home_between_hole_and_probe) {
      shard.table[hole] = shard.table[probe];
      hole = probe;
    }
  }
  shard.table[hole].page_id = kInvalidPageId;
  --shard.resident;
}

thread_local BufferManager::CaptureState* BufferManager::write_capture_ =
    nullptr;
thread_local BufferManager::CaptureState BufferManager::write_capture_slot_;

Result<PageGuard> BufferManager::Fix(PageId id) {
  const uint64_t h = Mix(id);
  Shard& shard = ShardOfHash(h);
  ShardLock lock = Lock(shard);
  ++shard.stats.fixes;
  const size_t slot = FindSlotH(shard, id, h);
  uint32_t frame_idx;
  if (slot != kNotFound) {
    ++shard.stats.hits;
    frame_idx = shard.table[slot].frame;
  } else {
    ++shard.stats.misses;
    STARFISH_ASSIGN_OR_RETURN(frame_idx, Load(shard, id, nullptr));
  }
  // Pre-image capture must see the page before the caller can touch it:
  // the thread-local slot is null outside an op, so the hot path pays one
  // TLS load and a predicted branch.
  if (__builtin_expect(write_capture_ != nullptr, false)) {
    MaybeCapturePreimageLocked(shard, frame_idx, id);
  }
  Frame& frame = shard.frames[frame_idx];
  ++frame.pins;
  TouchFrame(shard, frame_idx);
  return PageGuard(&shard, id, FrameData(shard, frame_idx), frame_idx);
}

Result<PageGuard> BufferManager::FixFresh(PageId id) {
  const uint64_t h = Mix(id);
  Shard& shard = ShardOfHash(h);
  ShardLock lock = Lock(shard);
  ++shard.stats.fixes;
  const size_t slot = FindSlotH(shard, id, h);
  uint32_t frame_idx;
  if (slot != kNotFound) {
    ++shard.stats.hits;
    frame_idx = shard.table[slot].frame;
  } else {
    ++shard.stats.misses;
    if (id == kInvalidPageId || id >= disk_->page_count()) {
      return Status::OutOfRange("FixFresh of unallocated page " +
                                std::to_string(id));
    }
    STARFISH_ASSIGN_OR_RETURN(frame_idx, LoadFresh(shard, id));
  }
  Frame& frame = shard.frames[frame_idx];
  ++frame.pins;
  TouchFrame(shard, frame_idx);
  return PageGuard(&shard, id, FrameData(shard, frame_idx), frame_idx);
}

Status BufferManager::Unfix(PageId id, bool dirty) {
  Shard& shard = ShardOf(id);
  ShardLock lock = Lock(shard);
  const size_t slot = FindSlot(shard, id);
  if (slot == kNotFound) {
    return Status::InvalidArgument("unfix of non-resident page " +
                                   std::to_string(id));
  }
  Frame& frame = shard.frames[shard.table[slot].frame];
  if (frame.pins == 0) {
    return Status::InvalidArgument("unfix of unpinned page " +
                                   std::to_string(id));
  }
  --frame.pins;
  if (dirty) {
    frame.dirty = true;
    if (__builtin_expect(write_capture_ != nullptr, false)) {
      CaptureDirtyLocked(shard, shard.table[slot].frame, id);
    }
  }
  return Status::OK();
}

bool BufferManager::IsCached(PageId id) const {
  const Shard& shard = ShardOf(id);
  ShardLock lock = Lock(shard);
  return FindSlot(shard, id) != kNotFound;
}

uint32_t BufferManager::resident_count() const {
  uint32_t total = 0;
  for (uint32_t s = 0; s < shard_count_; ++s) {
    ShardLock lock = Lock(ShardAt(s));
    total += ShardAt(s).resident;
  }
  return total;
}

BufferStats BufferManager::stats() const {
  BufferStats total;
  for (uint32_t s = 0; s < shard_count_; ++s) {
    ShardLock lock = Lock(ShardAt(s));
    total += ShardAt(s).stats;
  }
  return total;
}

void BufferManager::ResetStats() {
  for (uint32_t s = 0; s < shard_count_; ++s) {
    ShardLock lock = Lock(ShardAt(s));
    ShardAt(s).stats = BufferStats{};
  }
}

Status BufferManager::Prefetch(const std::vector<PageId>& ids,
                               PrefetchMode mode) {
  // Per-thread scratch: Prefetch is called concurrently from many reader
  // threads, and each call's working set must be private. Thread-locals
  // keep the steady state allocation-free, as the shared members used to.
  thread_local std::vector<PageId> missing;
  thread_local std::vector<const char*> views;
  thread_local std::vector<char*> staging_ptrs;
  thread_local AlignedBuffer staging;

  // Collect distinct missing pages, preserving order. The residency check
  // takes each page's shard lock; by the time we load a page below another
  // thread may have brought it in — Load re-checks under the lock.
  missing.clear();
  for (PageId id : ids) {
    if (std::find(missing.begin(), missing.end(), id) == missing.end() &&
        !IsCached(id)) {
      missing.push_back(id);
    }
  }
  if (missing.empty()) return Status::OK();

  // Zero-copy backends hand out views into their extents: pages go arena ->
  // frame in one memcpy each, with no staging buffer. Backends without a
  // memory image (O_DIRECT) read the batch into an aligned per-thread
  // staging area instead — same chained/run call accounting, one extra copy
  // that is noise next to a device read.
  const bool zero_copy = disk_->supports_zero_copy();
  if (!zero_copy &&
      !staging.Reserve(missing.size() * static_cast<size_t>(page_size_),
                       kStagingAlign)) {
    return Status::ResourceExhausted("cannot allocate prefetch staging");
  }

  // Installs `count` pages whose bytes the last read call left in `views`
  // (zero-copy) or at the head of `staging`. Single-threaded, evictions
  // triggered by earlier Load()s only write back resident pages, which are
  // disjoint from `missing` by construction; concurrently, another thread
  // may have loaded a page since the residency scan. Either way: only load
  // when still absent.
  auto install = [&](const PageId* page_ids, size_t count) -> Status {
    for (size_t i = 0; i < count; ++i) {
      const char* src =
          zero_copy ? views[i] : staging.data() + i * size_t{page_size_};
      Shard& shard = ShardOf(page_ids[i]);
      ShardLock lock = Lock(shard);
      if (FindSlot(shard, page_ids[i]) == kNotFound) {
        STARFISH_RETURN_NOT_OK(Load(shard, page_ids[i], src).status());
      }
      ++shard.stats.prefetched_pages;
    }
    return Status::OK();
  };

  if (mode == PrefetchMode::kChained) {
    if (zero_copy) {
      STARFISH_RETURN_NOT_OK(disk_->ReadChainedZeroCopy(missing, &views));
    } else {
      staging_ptrs.clear();
      for (size_t i = 0; i < missing.size(); ++i) {
        staging_ptrs.push_back(staging.data() + i * page_size_);
      }
      STARFISH_RETURN_NOT_OK(disk_->ReadChained(missing, staging_ptrs));
    }
    return install(missing.data(), missing.size());
  }

  // kContiguousRuns: group maximal runs of consecutive page ids.
  std::sort(missing.begin(), missing.end());
  size_t start = 0;
  while (start < missing.size()) {
    size_t end = start + 1;
    while (end < missing.size() && missing[end] == missing[end - 1] + 1) {
      ++end;
    }
    const uint32_t count = static_cast<uint32_t>(end - start);
    if (zero_copy) {
      STARFISH_RETURN_NOT_OK(
          disk_->ReadRunZeroCopy(missing[start], count, &views));
    } else {
      STARFISH_RETURN_NOT_OK(
          disk_->ReadRun(missing[start], count, staging.data()));
    }
    STARFISH_RETURN_NOT_OK(install(&missing[start], count));
    start = end;
  }
  return Status::OK();
}

Status BufferManager::WriteFrameBatchSorted(Shard& shard, size_t batch_limit) {
  std::sort(shard.scratch_frames.begin(), shard.scratch_frames.end(),
            [&shard](uint32_t a, uint32_t b) {
              return shard.frames[a].page_id < shard.frames[b].page_id;
            });
  // WAL-before-data: no page image may reach the volume while the record
  // explaining it is still volatile. Pending-sentinel frames were excluded
  // at collection time, so the max below is over resolved LSNs only.
  if (wal_hook_ != nullptr) {
    uint64_t max_lsn = 0;
    for (uint32_t idx : shard.scratch_frames) {
      max_lsn = std::max(max_lsn, shard.recovery_lsn[idx]);
    }
    if (max_lsn > 0) {
      STARFISH_RETURN_NOT_OK(wal_hook_->EnsureDurable(max_lsn));
    }
  }
  size_t pos = 0;
  while (pos < shard.scratch_frames.size()) {
    const size_t batch_end =
        std::min(shard.scratch_frames.size(), pos + batch_limit);
    shard.scratch_ids.clear();
    shard.scratch_srcs.clear();
    for (size_t i = pos; i < batch_end; ++i) {
      const uint32_t idx = shard.scratch_frames[i];
      shard.scratch_ids.push_back(shard.frames[idx].page_id);
      shard.scratch_srcs.push_back(FrameData(shard, idx));
    }
    STARFISH_RETURN_NOT_OK(
        disk_->WriteChained(shard.scratch_ids, shard.scratch_srcs));
    for (size_t i = pos; i < batch_end; ++i) {
      const uint32_t idx = shard.scratch_frames[i];
      shard.frames[idx].dirty = false;
      shard.recovery_lsn[idx] = 0;
      ++shard.stats.write_backs;
    }
    pos = batch_end;
  }
  return Status::OK();
}

Status BufferManager::FlushAll() {
  // Shard by shard: each shard's dirty pages are written in page-id order,
  // chained in batches (disconnect-time write-back). With one shard this is
  // the exact global write pattern of the flat pool.
  for (uint32_t s = 0; s < shard_count_; ++s) {
    Shard& shard = ShardAt(s);
    ShardLock lock = Lock(shard);
    shard.scratch_frames.clear();
    for (uint32_t i = 0; i < shard.frames.size(); ++i) {
      const Frame& frame = shard.frames[i];
      // Concurrent mode defers pinned dirty frames: the pin holder may be
      // writing the page bytes right now, and write-back reads the whole
      // frame. An unpinned dirty page is safe — its writer's bytes were
      // published by the unpin (shard lock release) we ordered behind.
      // Single-shard mode keeps the flat pool's flush-everything behaviour.
      // Frames still pending their WAL record are deferred in either mode
      // (no record exists yet to order the write-back behind).
      if (frame.page_id != kInvalidPageId && frame.dirty &&
          shard.recovery_lsn[i] != kPendingRecoveryLsn &&
          (!concurrent_ || frame.pins == 0)) {
        shard.scratch_frames.push_back(i);
      }
    }
    STARFISH_RETURN_NOT_OK(
        WriteFrameBatchSorted(shard, options_.write_batch_size));
  }
  return Status::OK();
}

Status BufferManager::DropAll() {
  for (uint32_t s = 0; s < shard_count_; ++s) {
    Shard& shard = ShardAt(s);
    ShardLock lock = Lock(shard);
    for (uint32_t i = 0; i < shard.frames.size(); ++i) {
      const Frame& frame = shard.frames[i];
      if (frame.page_id != kInvalidPageId && frame.pins > 0) {
        return Status::InvalidArgument("DropAll with pinned page " +
                                       std::to_string(frame.page_id));
      }
      if (shard.recovery_lsn[i] == kPendingRecoveryLsn) {
        return Status::InvalidArgument(
            "DropAll with page pending a WAL record: " +
            std::to_string(frame.page_id));
      }
    }
  }
  STARFISH_RETURN_NOT_OK(FlushAll());
  for (uint32_t s = 0; s < shard_count_; ++s) {
    Shard& shard = ShardAt(s);
    ShardLock lock = Lock(shard);
    for (uint32_t i = 0; i < shard.frames.size(); ++i) {
      Frame& frame = shard.frames[i];
      if (frame.page_id != kInvalidPageId) {
        RemoveFromOrder(shard, i);
        frame.page_id = kInvalidPageId;
        frame.referenced = false;
        shard.free_frames.push_back(i);
      }
    }
    std::fill(shard.table.begin(), shard.table.end(), TableSlot{});
    shard.resident = 0;
  }
  return Status::OK();
}

Result<uint32_t> BufferManager::Load(Shard& shard, PageId id,
                                     const char* already_read) {
  STARFISH_ASSIGN_OR_RETURN(uint32_t frame_idx, GrabFrame(shard));
  Frame& frame = shard.frames[frame_idx];
  if (already_read != nullptr) {
    std::memcpy(FrameData(shard, frame_idx), already_read, page_size_);
  } else {
    STARFISH_RETURN_NOT_OK(disk_->ReadRun(id, 1, FrameData(shard, frame_idx)));
  }
  frame.page_id = id;
  frame.pins = 0;
  frame.dirty = false;
  shard.recovery_lsn[frame_idx] = 0;
  frame.referenced = true;
  TableInsert(shard, id, frame_idx);
  EnqueueFrame(shard, frame_idx);
  return frame_idx;
}

Result<uint32_t> BufferManager::LoadFresh(Shard& shard, PageId id) {
  STARFISH_ASSIGN_OR_RETURN(uint32_t frame_idx, GrabFrame(shard));
  Frame& frame = shard.frames[frame_idx];
  std::memset(FrameData(shard, frame_idx), 0, page_size_);
  frame.page_id = id;
  frame.pins = 0;
  frame.dirty = false;
  shard.recovery_lsn[frame_idx] = 0;
  frame.referenced = true;
  TableInsert(shard, id, frame_idx);
  EnqueueFrame(shard, frame_idx);
  return frame_idx;
}

Result<uint32_t> BufferManager::GrabFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    const uint32_t idx = shard.free_frames.back();
    shard.free_frames.pop_back();
    return idx;
  }
  STARFISH_ASSIGN_OR_RETURN(uint32_t victim, PickVictim(shard));
  Frame& frame = shard.frames[victim];
  if (frame.dirty) {
    // Buffer overflow: clean a batch of cold dirty pages in one chained
    // write (the DASDBS write-at-overflow behaviour).
    STARFISH_RETURN_NOT_OK(WriteBackBatch(shard, victim));
  }
  RemoveFromOrder(shard, victim);
  TableErase(shard, frame.page_id);
  frame.page_id = kInvalidPageId;
  frame.referenced = false;
  ++shard.stats.evictions;
  return victim;
}

Result<uint32_t> BufferManager::PickVictim(Shard& shard) {
  // Distinguish "every frame is pinned" (caller holds too many guards for
  // this pool) from "unpinned frames exist but are all pending a WAL record"
  // — the latter is the bounded leak a failed AppendOp leaves behind (the
  // frames stay unexplained until the store reopens and replays), and the
  // caller should see that cause, not a generic pin complaint.
  bool saw_pending = false;
  switch (options_.policy) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo: {
      // Frames pending a WAL record (recovery_lsn sentinel) are unevictable:
      // their content is not yet explained by any durable record.
      for (uint32_t idx = shard.order_head; idx != kNullFrame;
           idx = shard.frames[idx].next) {
        if (shard.frames[idx].pins != 0) continue;
        if (shard.recovery_lsn[idx] == kPendingRecoveryLsn) {
          saw_pending = true;
          continue;
        }
        return idx;
      }
      break;
    }
    case ReplacementPolicy::kClock: {
      const uint32_t n = static_cast<uint32_t>(shard.frames.size());
      for (uint32_t sweep = 0; sweep < 2 * n; ++sweep) {
        const uint32_t idx = shard.clock_hand;
        shard.clock_hand = (shard.clock_hand + 1) % n;
        Frame& frame = shard.frames[idx];
        if (frame.page_id == kInvalidPageId || frame.pins > 0) continue;
        if (shard.recovery_lsn[idx] == kPendingRecoveryLsn) {
          saw_pending = true;
          continue;
        }
        if (frame.referenced) {
          frame.referenced = false;
          continue;
        }
        return idx;
      }
      break;
    }
  }
  if (saw_pending) {
    return Status::FailedPrecondition(
        "all unpinned buffer frames await a WAL record (a failed log append "
        "leaves its frames unflushable); close and reopen the store to "
        "recover them");
  }
  return Status::ResourceExhausted("all buffer frames pinned");
}

Status BufferManager::WriteBackBatch(Shard& shard, uint32_t must_include) {
  shard.scratch_frames.clear();
  shard.scratch_frames.push_back(must_include);
  // Walk the eviction order from cold to hot collecting dirty unpinned
  // frames. For CLOCK there is no order list; fall back to frame order.
  if (options_.policy == ReplacementPolicy::kClock) {
    for (uint32_t i = 0;
         i < shard.frames.size() &&
         shard.scratch_frames.size() < options_.write_batch_size;
         ++i) {
      const Frame& frame = shard.frames[i];
      if (i != must_include && frame.page_id != kInvalidPageId && frame.dirty &&
          frame.pins == 0 && shard.recovery_lsn[i] != kPendingRecoveryLsn) {
        shard.scratch_frames.push_back(i);
      }
    }
  } else {
    for (uint32_t idx = shard.order_head; idx != kNullFrame;
         idx = shard.frames[idx].next) {
      if (shard.scratch_frames.size() >= options_.write_batch_size) break;
      const Frame& frame = shard.frames[idx];
      if (idx != must_include && frame.dirty && frame.pins == 0 &&
          shard.recovery_lsn[idx] != kPendingRecoveryLsn) {
        shard.scratch_frames.push_back(idx);
      }
    }
  }
  return WriteFrameBatchSorted(shard, shard.scratch_frames.size());
}

void BufferManager::BeginWriteCapture(PageId preimage_limit) {
  CaptureState& slot = write_capture_slot_;
  slot.out.dirtied.clear();
  slot.out.preimages.clear();
  slot.preimage_limit = preimage_limit;
  write_capture_ = &slot;
}

BufferManager::WriteCapture BufferManager::TakeWriteCapture() {
  CaptureState& slot = write_capture_slot_;
  write_capture_ = nullptr;
  return std::move(slot.out);
}

void BufferManager::StampRecoveryLsn(const std::vector<PageId>& pages,
                                     uint64_t lsn) {
  for (PageId id : pages) {
    Shard& shard = ShardOf(id);
    ShardLock lock = Lock(shard);
    const size_t slot = FindSlot(shard, id);
    if (slot == kNotFound) continue;  // freed mid-op, frame dropped
    const uint32_t frame_idx = shard.table[slot].frame;
    shard.recovery_lsn[frame_idx] = lsn;
    shard.frames[frame_idx].dirty = true;
    // lsn 0 is the no-WAL clear: pending frames become ordinary dirty pages
    // and the on-page LSN (always 0 on that path) stays untouched.
    if (lsn != 0) SetPageLsn(FrameData(shard, frame_idx), lsn);
  }
}

void BufferManager::CaptureDirtyLocked(Shard& shard, uint32_t frame_idx,
                                       PageId id) {
  if (shard.recovery_lsn[frame_idx] == kPendingRecoveryLsn) {
    return;  // already recorded
  }
  shard.recovery_lsn[frame_idx] = kPendingRecoveryLsn;
  write_capture_->out.dirtied.push_back(id);
}

void BufferManager::MaybeCapturePreimageLocked(Shard& shard,
                                               uint32_t frame_idx, PageId id) {
  CaptureState& capture = *write_capture_;
  if (id >= capture.preimage_limit) return;
  for (const auto& [seen, image] : capture.out.preimages) {
    (void)image;
    if (seen == id) return;  // intra-op dedup: first Fix saw the pre-image
  }
  if (preimage_query_ && !preimage_query_(id)) return;
  capture.out.preimages.emplace_back(
      id, std::string(FrameData(shard, frame_idx), page_size_));
}

void BufferManager::TouchFrame(Shard& shard, uint32_t frame_idx) {
  Frame& frame = shard.frames[frame_idx];
  frame.referenced = true;
  if (options_.policy == ReplacementPolicy::kLru && frame.in_order &&
      shard.order_tail != frame_idx) {
    RemoveFromOrder(shard, frame_idx);
    EnqueueFrame(shard, frame_idx);
  }
  // FIFO: position fixed at load time. CLOCK: referenced bit is enough.
}

void BufferManager::EnqueueFrame(Shard& shard, uint32_t frame_idx) {
  Frame& frame = shard.frames[frame_idx];
  frame.prev = shard.order_tail;
  frame.next = kNullFrame;
  if (shard.order_tail != kNullFrame) {
    shard.frames[shard.order_tail].next = frame_idx;
  } else {
    shard.order_head = frame_idx;
  }
  shard.order_tail = frame_idx;
  frame.in_order = true;
}

void BufferManager::RemoveFromOrder(Shard& shard, uint32_t frame_idx) {
  Frame& frame = shard.frames[frame_idx];
  if (!frame.in_order) return;
  if (frame.prev != kNullFrame) {
    shard.frames[frame.prev].next = frame.next;
  } else {
    shard.order_head = frame.next;
  }
  if (frame.next != kNullFrame) {
    shard.frames[frame.next].prev = frame.prev;
  } else {
    shard.order_tail = frame.prev;
  }
  frame.prev = kNullFrame;
  frame.next = kNullFrame;
  frame.in_order = false;
}

}  // namespace starfish
