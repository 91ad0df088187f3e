#pragma once

// In-memory span recorder for the benchmark's traced run, plus the two
// decorators that time the device and log layers from outside the store:
// TracingVolume (installed through StoreOptions::volume_decorator) and
// TracingLogFile (through StoreOptions::wal_log_decorator).
//
// Each decorator forwards every virtual of the interface it wraps to the
// inner object unchanged, so the traced program takes exactly the code
// paths of the untraced one; it only brackets the calls with clock reads.
// A child span is parented to the op running on the calling thread (a
// thread-local op id the runner sets around every op).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "disk/log_file.h"
#include "disk/volume.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Span kinds. Op spans are recorded by the runner; the rest are children
// recorded by the decorators.
enum class SpanKind : uint8_t {
  kOpGet = 0,
  kOpByKey,
  kOpWrite,
  kOpScan,
  kFlush,
  // disk layer
  kReadRun,
  kReadRunZeroCopy,
  kReadChained,
  kReadChainedZeroCopy,
  kSubmitRead,
  kCompleteRead,
  kWriteRun,
  kWriteChained,
  kWritePageUnmetered,
  kVolumeSync,
  // wal layer
  kLogAppend,
  kLogSync,
  kLogReplace,
};

bool IsDiskSpan(SpanKind kind);
bool IsWalSpan(SpanKind kind);
bool IsDiskReadSpan(SpanKind kind);
bool IsDiskWriteSpan(SpanKind kind);

// One span. `op` is the id of the op span itself (for op spans) or of the
// parent op (for child spans); 0 = no op was running. `amount` is pages for
// disk spans and bytes for log appends.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t op = 0;
  uint32_t amount = 0;
  SpanKind kind = SpanKind::kOpGet;
  uint8_t thread = 0;
};

// Collects spans from any number of threads. Each thread appends to its own
// buffer (registered on first use), so recording takes no lock.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Spans are recorded only while enabled (the timed phase).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(SpanKind kind, int64_t start_ns, int64_t end_ns,
              uint32_t amount);
  // Records an op span under an explicit op id.
  void RecordOp(SpanKind kind, uint32_t op, int64_t start_ns, int64_t end_ns);

  // All spans, merged across threads (call after every recording thread
  // has finished).
  std::vector<Span> Collect() const;

  // Writes `spans` as a binary file: "PBSPANS1", u64 count, then the raw
  // 32-byte records. Returns false on an I/O error.
  static bool WriteFile(const std::vector<Span>& spans,
                        const std::string& path);

  // Sets the op that spans recorded on this thread are parented to.
  static void SetCurrentOp(uint32_t op);

 private:
  struct ThreadBuffer {
    uint8_t thread = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* Buffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  // Distinguishes tracers so a thread's cached buffer never leaks from a
  // destroyed tracer into a new one.
  const uint64_t serial_ = next_serial_.fetch_add(1) + 1;
  static std::atomic<uint64_t> next_serial_;
};

// Volume decorator: times every I/O-issuing call, forwards everything.
class TracingVolume final : public starfish::Volume {
 public:
  TracingVolume(std::unique_ptr<starfish::Volume> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  starfish::VolumeKind kind() const override { return inner_->kind(); }
  uint32_t page_size() const override { return inner_->page_size(); }
  uint32_t pages_per_extent() const override {
    return inner_->pages_per_extent();
  }
  uint64_t page_count() const override { return inner_->page_count(); }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }
  starfish::Result<starfish::PageId> AllocateRun(uint32_t n) override {
    return inner_->AllocateRun(n);
  }
  starfish::Status Free(starfish::PageId id) override {
    return inner_->Free(id);
  }
  starfish::Status ReadRun(starfish::PageId first, uint32_t count,
                           char* out) override;
  starfish::Status WriteRun(starfish::PageId first, uint32_t count,
                            const char* src) override;
  bool supports_zero_copy() const override {
    return inner_->supports_zero_copy();
  }
  uint32_t io_buffer_alignment() const override {
    return inner_->io_buffer_alignment();
  }
  starfish::Status ReadRunZeroCopy(
      starfish::PageId first, uint32_t count,
      std::vector<const char*>* views) override;
  starfish::Status ReadChained(const std::vector<starfish::PageId>& ids,
                               const std::vector<char*>& outs) override;
  starfish::Status ReadChainedZeroCopy(
      const std::vector<starfish::PageId>& ids,
      std::vector<const char*>* views) override;
  bool supports_async_read() const override {
    return inner_->supports_async_read();
  }
  starfish::Result<uint64_t> SubmitReadChained(
      const std::vector<starfish::PageId>& ids,
      const std::vector<char*>& outs) override;
  starfish::Status CompleteRead(uint64_t ticket) override;
  void RegisterIoMemory(const void* base, size_t bytes) override {
    inner_->RegisterIoMemory(base, bytes);
  }
  void UnregisterIoMemory(const void* base) override {
    inner_->UnregisterIoMemory(base);
  }
  starfish::Status WriteChained(
      const std::vector<starfish::PageId>& ids,
      const std::vector<const char*>& srcs) override;
  const char* PeekPage(starfish::PageId id) const override {
    return inner_->PeekPage(id);
  }
  starfish::Status WritePageUnmetered(starfish::PageId id,
                                      const char* src) override;
  starfish::Status Sync() override;
  starfish::Status ReconcileLive(
      const std::vector<starfish::PageId>& live) override {
    return inner_->ReconcileLive(live);
  }
  starfish::IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  std::unique_ptr<starfish::Volume> inner_;
  Tracer* tracer_;
};

// LogFile decorator: times Append / Sync / Replace, forwards everything.
class TracingLogFile final : public starfish::LogFile {
 public:
  TracingLogFile(std::unique_ptr<starfish::LogFile> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  starfish::Status Append(std::string_view bytes) override;
  starfish::Status Sync() override;
  starfish::Status Replace(std::string_view bytes) override;
  const std::string& path() const override { return inner_->path(); }

 private:
  std::unique_ptr<starfish::LogFile> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench
