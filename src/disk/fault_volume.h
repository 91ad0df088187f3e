#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "disk/io_stats.h"
#include "disk/log_file.h"
#include "disk/volume.h"

/// \file fault_volume.h
/// A fault-injecting decorator over any Volume backend — the test substrate
/// of the crash-consistency guarantee.
///
/// FaultVolume forwards every operation to the wrapped backend and can, on
/// demand:
///
///   * fail the Nth write call (WriteRun/WriteChained), optionally after
///     "tearing" it — applying only the first `torn_pages` pages of the
///     request, as a real multi-page DMA interrupted by power loss would;
///   * fail the Nth Sync call before it reaches the backend, so neither the
///     page images nor the allocator journal advance;
///   * simulate power loss: all un-synced page writes vanish and the volume
///     goes down (every subsequent operation fails), exactly what a store
///     sees when the machine dies mid-checkpoint.
///
/// Dropping un-synced bytes requires the decorator to *buffer* writes
/// (Options::buffer_unsynced_writes): written pages live in a volatile
/// overlay — the "disk cache" — and only reach the wrapped backend when
/// Sync flushes them. Reads are served through the overlay, so a running
/// store observes its own writes as usual; the backing files only ever
/// contain synced state, which is what a post-crash reopen must see.
///
/// With buffering off and no fault armed the decorator is a transparent
/// passthrough: same results, same IoStats, same zero-copy pointers — the
/// backend-parameterized conformance suite runs over FaultVolume{MemVolume}
/// to prove it.
///
/// Thread safety: the overlay and fault counters sit behind one mutex. This
/// is a test harness, not a hot path — the paper benches never see it.

namespace starfish {

/// FaultVolume construction options.
struct FaultVolumeOptions {
  /// Buffer page writes in a volatile overlay until Sync, so
  /// SimulatePowerLoss can drop them. Off = pure passthrough writes.
  bool buffer_unsynced_writes = false;
};

/// What to break. Counters are 1-based; 0 disarms the fault.
struct FaultPlan {
  /// Fail the Nth write call (counted across WriteRun/WriteChained).
  uint64_t fail_write_call = 0;
  /// Pages of the failing write applied before the failure ("torn
  /// write"). 0 = the write fails without transferring anything.
  uint32_t torn_pages = 0;
  /// Fail the Nth Sync call, before the backend sees it.
  uint64_t fail_sync_call = 0;
  /// Fail the Nth read call (counted across ReadRun/ReadChained and their
  /// zero-copy variants; PeekPage is a non-I/O peek and never counts) —
  /// a dying medium returning EIO, not a crash artifact.
  uint64_t fail_read_call = 0;
  /// Fail the Nth log Append call (counted per wrapped LogFile, see
  /// WrapLogFile).
  uint64_t fail_log_append = 0;
  /// Fail the Nth log Sync call.
  uint64_t fail_log_sync = 0;
  /// Bytes of the un-synced log stream that reach the medium when a log
  /// fault fires ("torn log tail"): the cache made it partway out before
  /// the machine died. 0 = nothing beyond the already-synced prefix.
  uint64_t torn_log_bytes = 0;
  /// Enter the powered-off state the moment a fault fires, as if the
  /// failing operation was the last thing the machine did.
  bool power_loss_on_fault = false;
};

/// Decorator injecting write/sync faults and simulated power loss.
class FaultVolume final : public Volume {
 public:
  /// Wraps and owns `inner`.
  explicit FaultVolume(std::unique_ptr<Volume> inner,
                       FaultVolumeOptions options = {})
      : owned_(std::move(inner)), inner_(owned_.get()), options_(options) {}

  /// Wraps a caller-owned backend (must outlive the decorator).
  explicit FaultVolume(Volume* inner, FaultVolumeOptions options = {})
      : inner_(inner), options_(options) {}

  /// Arms the next faults. Replaces any previous plan; counters keep
  /// running (the plan indices are absolute, counted from construction or
  /// the last ResetFaultCounters).
  void SetPlan(const FaultPlan& plan) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = plan;
  }
  void ClearPlan() { SetPlan(FaultPlan{}); }

  /// Zeroes the write/sync/read/log call counters (the plan indices
  /// restart at 1).
  void ResetFaultCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    write_calls_seen_ = 0;
    sync_calls_seen_ = 0;
    read_calls_seen_ = 0;
    log_append_calls_seen_ = 0;
    log_sync_calls_seen_ = 0;
  }

  /// Write calls observed so far (fault-counter clock, not IoStats).
  uint64_t write_calls_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return write_calls_seen_;
  }
  /// Sync calls observed so far.
  uint64_t sync_calls_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_calls_seen_;
  }
  /// Read calls observed so far.
  uint64_t read_calls_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_calls_seen_;
  }
  /// Log Append calls observed so far (across wrapped log files).
  uint64_t log_append_calls_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_append_calls_seen_;
  }
  /// Log Sync calls observed so far.
  uint64_t log_sync_calls_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_sync_calls_seen_;
  }
  /// Injected faults that actually fired.
  uint64_t faults_fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return faults_fired_;
  }

  /// The machine dies: un-synced buffered writes are gone (they never
  /// reached the backend) and every subsequent operation fails until
  /// Revive(). The backend now holds exactly the synced state — copy or
  /// reopen its directory to observe the post-crash disk.
  void SimulatePowerLoss() {
    std::lock_guard<std::mutex> lock(mu_);
    down_ = true;
  }

  /// Powers the volume back up (the overlay and any un-synced log tail
  /// stay dropped).
  void Revive() {
    std::lock_guard<std::mutex> lock(mu_);
    down_ = false;
    overlay_.clear();
    dirty_.clear();
    log_pending_.clear();
  }

  bool down() const {
    std::lock_guard<std::mutex> lock(mu_);
    return down_;
  }

  /// The wrapped backend.
  Volume* inner() { return inner_; }

  /// Decorates a log file with this volume's fault plan and power state:
  /// appends/syncs fail when the volume is down or an armed log fault
  /// fires, and (under buffer_unsynced_writes) un-synced appended bytes
  /// live in a volatile cache that SimulatePowerLoss drops — except for a
  /// `torn_log_bytes` prefix a firing fault lets reach the medium. The
  /// decorator holds a reference to this volume; it must not outlive it.
  std::unique_ptr<LogFile> WrapLogFile(std::unique_ptr<LogFile> inner);

  // ------------------------------------------------------------ Volume --
  VolumeKind kind() const override { return inner_->kind(); }
  bool supports_zero_copy() const override {
    return inner_->supports_zero_copy();
  }
  uint32_t io_buffer_alignment() const override {
    return inner_->io_buffer_alignment();
  }
  // The async read pair stays on the base implementation: it routes
  // through this decorator's virtual ReadChained, so armed read faults fire
  // on async-shaped callers too.
  void RegisterIoMemory(const void* base, size_t bytes) override {
    inner_->RegisterIoMemory(base, bytes);
  }
  void UnregisterIoMemory(const void* base) override {
    inner_->UnregisterIoMemory(base);
  }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint32_t pages_per_extent() const override {
    return inner_->pages_per_extent();
  }
  uint64_t page_count() const override { return inner_->page_count(); }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }

  Result<PageId> AllocateRun(uint32_t n) override;
  Status Free(PageId id) override;
  Status ReadRun(PageId first, uint32_t count, char* out) override;
  Status WriteRun(PageId first, uint32_t count, const char* src) override;
  Status ReadRunZeroCopy(PageId first, uint32_t count,
                         std::vector<const char*>* views) override;
  Status ReadChained(const std::vector<PageId>& ids,
                     const std::vector<char*>& outs) override;
  Status ReadChainedZeroCopy(const std::vector<PageId>& ids,
                             std::vector<const char*>* views) override;
  Status WriteChained(const std::vector<PageId>& ids,
                      const std::vector<const char*>& srcs) override;
  const char* PeekPage(PageId id) const override;
  Status WritePageUnmetered(PageId id, const char* src) override;
  Status Sync() override;
  Status ReconcileLive(const std::vector<PageId>& live) override {
    return inner_->ReconcileLive(live);
  }
  IoStats stats() const override;
  void ResetStats() override;

 private:
  friend class FaultLogFile;

  Status DownError() const;

  /// Copies `src` into the overlay image of `id` (creating it) and marks it
  /// un-synced. mu_ held.
  void BufferWriteLocked(PageId id, const char* src);

  /// True (and counts the fault) when the write call just counted is the
  /// armed one. mu_ held.
  bool WriteFaultFiresLocked();

  /// True (and counts the fault) when the read call just counted is the
  /// armed one. mu_ held.
  bool ReadFaultFiresLocked();

  std::unique_ptr<Volume> owned_;  // empty for the non-owning constructor
  Volume* inner_;
  FaultVolumeOptions options_;

  mutable std::mutex mu_;
  FaultPlan plan_;
  bool down_ = false;
  uint64_t write_calls_seen_ = 0;
  uint64_t sync_calls_seen_ = 0;
  uint64_t read_calls_seen_ = 0;
  uint64_t log_append_calls_seen_ = 0;
  uint64_t log_sync_calls_seen_ = 0;
  uint64_t faults_fired_ = 0;
  /// Un-synced log bytes across wrapped log files ("OS page cache" of the
  /// append-only log): dropped by power loss, flushed by a log Sync.
  std::string log_pending_;
  /// Volatile page images of buffered writes. Entries are never erased
  /// while powered (Sync copies them to the backend but keeps the image, so
  /// zero-copy views handed out earlier stay valid and subsequent reads see
  /// identical bytes either way).
  std::unordered_map<PageId, std::unique_ptr<char[]>> overlay_;
  /// Overlay pages not yet applied to the backend (a set: rewriting a hot
  /// page between Syncs must not grow it or re-copy at flush).
  std::unordered_set<PageId> dirty_;
  /// Write accounting for buffered writes (they never reach the backend's
  /// meter; reads always do).
  AtomicIoStats buffered_writes_;
};

}  // namespace starfish
