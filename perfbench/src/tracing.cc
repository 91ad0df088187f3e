#include "tracing.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

thread_local uint32_t tls_current_op = 0;

struct CachedBuffer {
  uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local CachedBuffer tls_buffer;

}  // namespace

std::atomic<uint64_t> Tracer::next_serial_{0};

bool IsDiskSpan(SpanKind kind) {
  return kind >= SpanKind::kReadRun && kind <= SpanKind::kVolumeSync;
}

bool IsWalSpan(SpanKind kind) {
  return kind >= SpanKind::kLogAppend && kind <= SpanKind::kLogReplace;
}

bool IsDiskReadSpan(SpanKind kind) {
  return kind >= SpanKind::kReadRun && kind <= SpanKind::kCompleteRead;
}

bool IsDiskWriteSpan(SpanKind kind) {
  return kind >= SpanKind::kWriteRun && kind <= SpanKind::kWritePageUnmetered;
}

void Tracer::SetCurrentOp(uint32_t op) { tls_current_op = op; }

Tracer::ThreadBuffer* Tracer::Buffer() {
  if (tls_buffer.serial == serial_) {
    return static_cast<ThreadBuffer*>(tls_buffer.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->thread = static_cast<uint8_t>(buffers_.size());
  buffer->spans.reserve(1 << 16);
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tls_buffer = CachedBuffer{serial_, raw};
  return raw;
}

void Tracer::Record(SpanKind kind, int64_t start_ns, int64_t end_ns,
                    uint32_t amount) {
  if (!enabled()) return;
  ThreadBuffer* buffer = Buffer();
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.op = tls_current_op;
  span.amount = amount;
  span.kind = kind;
  span.thread = buffer->thread;
  buffer->spans.push_back(span);
}

void Tracer::RecordOp(SpanKind kind, uint32_t op, int64_t start_ns,
                      int64_t end_ns) {
  if (!enabled()) return;
  ThreadBuffer* buffer = Buffer();
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.op = op;
  span.kind = kind;
  span.thread = buffer->thread;
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  all.reserve(total);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool Tracer::WriteFile(const std::vector<Span>& spans,
                       const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite("PBSPANS1", 1, 8, f) == 8;
  const uint64_t count = spans.size();
  ok = ok && std::fwrite(&count, sizeof(count), 1, f) == 1;
  for (const Span& s : spans) {
    // Fixed little-endian 32-byte record: start, end, op, amount, kind,
    // thread, 2 pad bytes.
    char record[32] = {};
    std::memcpy(record, &s.start_ns, 8);
    std::memcpy(record + 8, &s.end_ns, 8);
    std::memcpy(record + 16, &s.op, 4);
    std::memcpy(record + 20, &s.amount, 4);
    record[24] = static_cast<char>(s.kind);
    record[25] = static_cast<char>(s.thread);
    ok = ok && std::fwrite(record, 1, sizeof(record), f) == sizeof(record);
  }
  return std::fclose(f) == 0 && ok;
}

// ----------------------------------------------------------- TracingVolume --

namespace {

// Brackets one forwarded call with a span.
template <typename Fn>
auto Timed(Tracer* tracer, SpanKind kind, uint32_t amount, Fn&& fn) {
  if (!tracer->enabled()) return fn();
  const int64_t start = NowNs();
  auto result = fn();
  tracer->Record(kind, start, NowNs(), amount);
  return result;
}

}  // namespace

starfish::Status TracingVolume::ReadRun(starfish::PageId first,
                                        uint32_t count, char* out) {
  return Timed(tracer_, SpanKind::kReadRun, count,
               [&] { return inner_->ReadRun(first, count, out); });
}

starfish::Status TracingVolume::WriteRun(starfish::PageId first,
                                         uint32_t count, const char* src) {
  return Timed(tracer_, SpanKind::kWriteRun, count,
               [&] { return inner_->WriteRun(first, count, src); });
}

starfish::Status TracingVolume::ReadRunZeroCopy(
    starfish::PageId first, uint32_t count, std::vector<const char*>* views) {
  return Timed(tracer_, SpanKind::kReadRunZeroCopy, count,
               [&] { return inner_->ReadRunZeroCopy(first, count, views); });
}

starfish::Status TracingVolume::ReadChained(
    const std::vector<starfish::PageId>& ids, const std::vector<char*>& outs) {
  return Timed(tracer_, SpanKind::kReadChained,
               static_cast<uint32_t>(ids.size()),
               [&] { return inner_->ReadChained(ids, outs); });
}

starfish::Status TracingVolume::ReadChainedZeroCopy(
    const std::vector<starfish::PageId>& ids,
    std::vector<const char*>* views) {
  return Timed(tracer_, SpanKind::kReadChainedZeroCopy,
               static_cast<uint32_t>(ids.size()),
               [&] { return inner_->ReadChainedZeroCopy(ids, views); });
}

starfish::Result<uint64_t> TracingVolume::SubmitReadChained(
    const std::vector<starfish::PageId>& ids, const std::vector<char*>& outs) {
  return Timed(tracer_, SpanKind::kSubmitRead,
               static_cast<uint32_t>(ids.size()),
               [&] { return inner_->SubmitReadChained(ids, outs); });
}

starfish::Status TracingVolume::CompleteRead(uint64_t ticket) {
  return Timed(tracer_, SpanKind::kCompleteRead, 0,
               [&] { return inner_->CompleteRead(ticket); });
}

starfish::Status TracingVolume::WriteChained(
    const std::vector<starfish::PageId>& ids,
    const std::vector<const char*>& srcs) {
  return Timed(tracer_, SpanKind::kWriteChained,
               static_cast<uint32_t>(ids.size()),
               [&] { return inner_->WriteChained(ids, srcs); });
}

starfish::Status TracingVolume::WritePageUnmetered(starfish::PageId id,
                                                   const char* src) {
  return Timed(tracer_, SpanKind::kWritePageUnmetered, 1,
               [&] { return inner_->WritePageUnmetered(id, src); });
}

starfish::Status TracingVolume::Sync() {
  return Timed(tracer_, SpanKind::kVolumeSync, 0,
               [&] { return inner_->Sync(); });
}

// ---------------------------------------------------------- TracingLogFile --

starfish::Status TracingLogFile::Append(std::string_view bytes) {
  return Timed(tracer_, SpanKind::kLogAppend,
               static_cast<uint32_t>(bytes.size()),
               [&] { return inner_->Append(bytes); });
}

starfish::Status TracingLogFile::Sync() {
  return Timed(tracer_, SpanKind::kLogSync, 0, [&] { return inner_->Sync(); });
}

starfish::Status TracingLogFile::Replace(std::string_view bytes) {
  return Timed(tracer_, SpanKind::kLogReplace,
               static_cast<uint32_t>(bytes.size()),
               [&] { return inner_->Replace(bytes); });
}

}  // namespace perfbench
