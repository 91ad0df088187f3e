// Backend conformance suite of the Volume interface.
//
// Every test runs over every backend (MemVolume, MmapVolume, DirectVolume)
// plus the FaultVolume decorator with faults disabled: the metering
// contract, the extent-boundary behaviour and the zero-copy guarantees are
// part of the interface, not of one implementation — and a quiescent fault
// decorator must be indistinguishable from its backend (IoStats and
// zero-copy pointers included). The direct backend declares
// supports_zero_copy() == false, so the zero-copy/PeekPage tests assert the
// documented NotSupported/nullptr behaviour there instead; it is skipped
// entirely on filesystems without O_DIRECT (tmpfs, overlayfs). Backend-
// specific behaviour (persistence, reopen) lives in mmap_volume_test.cc /
// direct_volume_test.cc; the fault decorator's active behaviour in
// fault_volume_test.cc.

#include "disk/volume.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "../support/direct_probe.h"
#include "disk/direct_volume.h"
#include "util/aligned_buffer.h"
#include "disk/fault_volume.h"
#include "disk/mem_volume.h"
#include "disk/mmap_volume.h"

namespace starfish {
namespace {

std::vector<char> Pattern(uint32_t page_size, char fill) {
  return std::vector<char>(page_size, fill);
}

/// The parameter space: the three real backends, plus FaultVolume wrapped
/// around MemVolume and DirectVolume with no fault armed (the
/// transparent-passthrough proof must hold over a zero-copy backend and a
/// copying one — the crash matrix relies on both).
enum class TestBackend { kMem, kMmap, kDirect, kFaultMem, kFaultDirect };

VolumeKind ExpectedKind(TestBackend backend) {
  switch (backend) {
    case TestBackend::kMmap: return VolumeKind::kMmap;
    case TestBackend::kDirect:
    case TestBackend::kFaultDirect: return VolumeKind::kDirect;
    default: return VolumeKind::kMem;
  }
}

std::string BackendName(TestBackend backend) {
  switch (backend) {
    case TestBackend::kMem: return "mem";
    case TestBackend::kMmap: return "mmap";
    case TestBackend::kDirect: return "direct";
    case TestBackend::kFaultMem: return "fault_mem";
    case TestBackend::kFaultDirect: return "fault_direct";
  }
  return "unknown";
}

bool IsDirectBacked(TestBackend backend) {
  return backend == TestBackend::kDirect ||
         backend == TestBackend::kFaultDirect;
}

bool DirectSupportedHere() {
  static const bool supported = test::DirectIoSupportedHere("volume");
  return supported;
}

/// Creates a fresh backend of the parameterized kind in a private temp
/// directory (mmap/direct) or in memory (mem / fault_mem).
class VolumeTest : public ::testing::TestWithParam<TestBackend> {
 protected:
  void SetUp() override {
    if (IsDirectBacked(GetParam()) && !DirectSupportedHere()) {
      GTEST_SKIP() << "filesystem has no O_DIRECT support";
    }
  }

  std::unique_ptr<Volume> Make(DiskOptions options = {}) {
    if (GetParam() == TestBackend::kFaultMem) {
      return std::make_unique<FaultVolume>(
          std::make_unique<MemVolume>(options));
    }
    std::string path;
    if (GetParam() != TestBackend::kMem) {
      // The pid keeps parallel ctest processes (each restarting the
      // counter at 0) out of each other's directories.
      path = (std::filesystem::temp_directory_path() /
              ("starfish_volume_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(dir_counter_++)))
                 .string();
      std::filesystem::remove_all(path);
      cleanup_.push_back(path);
    }
    auto volume_or = CreateVolume(ExpectedKind(GetParam()), options, path);
    EXPECT_TRUE(volume_or.ok()) << volume_or.status().ToString();
    if (GetParam() == TestBackend::kFaultDirect) {
      return std::make_unique<FaultVolume>(std::move(volume_or).value());
    }
    return std::move(volume_or).value();
  }

  /// Tiny geometry (4 pages per extent) so runs cross extents cheaply. The
  /// direct backend cannot go below the 512-byte device sector.
  DiskOptions TinyExtents() const {
    DiskOptions o;
    o.page_size = IsDirectBacked(GetParam()) ? 512 : 256;
    o.extent_bytes = 4 * o.page_size;
    return o;
  }

  void TearDown() override {
    for (const std::string& dir : cleanup_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

 private:
  static int dir_counter_;
  std::vector<std::string> cleanup_;
};

int VolumeTest::dir_counter_ = 0;

TEST_P(VolumeTest, KindMatchesBackend) {
  auto disk = Make();
  EXPECT_EQ(disk->kind(), ExpectedKind(GetParam()));
  // The decorators report the wrapped backend's kind.
  EXPECT_EQ(ToString(disk->kind()), ToString(ExpectedKind(GetParam())));
}

TEST_P(VolumeTest, AllocateGrowsVolume) {
  auto disk = Make();
  EXPECT_EQ(disk->page_count(), 0u);
  const PageId a = disk->Allocate().value();
  const PageId b = disk->Allocate().value();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(disk->page_count(), 2u);
  EXPECT_EQ(disk->live_page_count(), 2u);
}

TEST_P(VolumeTest, AllocateRunIsContiguous) {
  auto disk = Make();
  ASSERT_TRUE(disk->Allocate().ok());
  const PageId first = disk->AllocateRun(5).value();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(disk->page_count(), 6u);
}

TEST_P(VolumeTest, FreshPagesAreZeroFilled) {
  auto disk = Make();
  const PageId id = disk->Allocate().value();
  std::vector<char> buf(disk->page_size(), 'x');
  ASSERT_TRUE(disk->ReadRun(id, 1, buf.data()).ok());
  for (char c : buf) EXPECT_EQ(c, '\0');
}

TEST_P(VolumeTest, WriteReadRoundTrip) {
  auto disk = Make();
  const PageId id = disk->Allocate().value();
  auto data = Pattern(disk->page_size(), 'A');
  ASSERT_TRUE(disk->WriteRun(id, 1, data.data()).ok());
  std::vector<char> buf(disk->page_size());
  ASSERT_TRUE(disk->ReadRun(id, 1, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), disk->page_size()), 0);
}

TEST_P(VolumeTest, RunCountsOneCallManyPages) {
  auto disk = Make();
  const PageId first = disk->AllocateRun(4).value();
  std::vector<char> buf(4 * disk->page_size());
  ASSERT_TRUE(disk->ReadRun(first, 4, buf.data()).ok());
  EXPECT_EQ(disk->stats().read_calls, 1u);
  EXPECT_EQ(disk->stats().pages_read, 4u);
  ASSERT_TRUE(disk->WriteRun(first, 4, buf.data()).ok());
  EXPECT_EQ(disk->stats().write_calls, 1u);
  EXPECT_EQ(disk->stats().pages_written, 4u);
}

TEST_P(VolumeTest, ChainedIoCountsOneCall) {
  auto disk = Make();
  ASSERT_TRUE(disk->AllocateRun(10).ok());
  std::vector<char> b0(disk->page_size()), b1(disk->page_size()),
      b2(disk->page_size());
  ASSERT_TRUE(disk->ReadChained({2, 7, 9}, {b0.data(), b1.data(), b2.data()})
                  .ok());
  EXPECT_EQ(disk->stats().read_calls, 1u);
  EXPECT_EQ(disk->stats().pages_read, 3u);
}

TEST_P(VolumeTest, ChainedWriteRoundTrip) {
  auto disk = Make();
  ASSERT_TRUE(disk->AllocateRun(5).ok());
  auto a = Pattern(disk->page_size(), 'a');
  auto b = Pattern(disk->page_size(), 'b');
  ASSERT_TRUE(disk->WriteChained({1, 4}, {a.data(), b.data()}).ok());
  EXPECT_EQ(disk->stats().write_calls, 1u);
  std::vector<char> buf(disk->page_size());
  ASSERT_TRUE(disk->ReadRun(4, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 'b');
}

TEST_P(VolumeTest, OutOfRangeAccessRejected) {
  auto disk = Make();
  ASSERT_TRUE(disk->Allocate().ok());
  const IoStats before = disk->stats();
  std::vector<char> buf(disk->page_size());
  EXPECT_TRUE(disk->ReadRun(1, 1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk->ReadRun(0, 2, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk->ReadRun(kInvalidPageId, 1, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk->ReadRun(0, 0, buf.data()).IsInvalidArgument());
  // A rejected call is no I/O: the meter — and so the Equation-1 time
  // priced from it — stays where it was.
  const IoStats delta = disk->stats().Since(before);
  EXPECT_EQ(delta.TotalCalls(), 0u);
  EXPECT_EQ(delta.TotalPages(), 0u);
}

TEST_P(VolumeTest, EmptyRunRejected) {
  auto disk = Make();
  ASSERT_TRUE(disk->Allocate().ok());
  std::vector<char> buf(disk->page_size());
  EXPECT_TRUE(disk->ReadRun(0, 0, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(disk->ReadChained({}, {}).IsInvalidArgument());
  EXPECT_TRUE(disk->AllocateRun(0).status().IsInvalidArgument());
}

TEST_P(VolumeTest, ChainedSizeMismatchRejected) {
  auto disk = Make();
  ASSERT_TRUE(disk->Allocate().ok());
  std::vector<char> buf(disk->page_size());
  EXPECT_TRUE(
      disk->ReadChained({0}, {buf.data(), buf.data()}).IsInvalidArgument());
}

TEST_P(VolumeTest, DoubleFreeRejected) {
  auto disk = Make();
  const PageId id = disk->Allocate().value();
  EXPECT_TRUE(disk->Free(id).ok());
  EXPECT_EQ(disk->live_page_count(), 0u);
  EXPECT_TRUE(disk->Free(id).IsInvalidArgument());
}

TEST_P(VolumeTest, CustomPageSize) {
  auto disk = Make(DiskOptions{512, 4u << 20});
  EXPECT_EQ(disk->page_size(), 512u);
  const PageId id = disk->Allocate().value();
  auto data = Pattern(512, 'z');
  ASSERT_TRUE(disk->WriteRun(id, 1, data.data()).ok());
}

TEST_P(VolumeTest, ResetStatsZeroesCounters) {
  auto disk = Make();
  ASSERT_TRUE(disk->AllocateRun(2).ok());
  std::vector<char> buf(disk->page_size());
  ASSERT_TRUE(disk->ReadRun(0, 1, buf.data()).ok());
  disk->ResetStats();
  EXPECT_EQ(disk->stats().TotalCalls(), 0u);
  EXPECT_EQ(disk->stats().TotalPages(), 0u);
}

// --- extent-boundary coverage ---------------------------------------------

TEST_P(VolumeTest, GeometryFollowsOptions) {
  auto disk = Make(TinyExtents());
  EXPECT_EQ(disk->pages_per_extent(), 4u);
  // An extent smaller than one page still holds one page.
  DiskOptions big;
  big.page_size = 4096;
  big.extent_bytes = 1024;
  EXPECT_EQ(Make(big)->pages_per_extent(), 1u);
}

TEST_P(VolumeTest, RunSpanningExtentsRoundTrips) {
  auto disk = Make(TinyExtents());
  const uint32_t n = 11;  // crosses two extent boundaries
  const PageId first = disk->AllocateRun(n).value();
  std::vector<char> data(n * disk->page_size());
  for (uint32_t i = 0; i < n; ++i) {
    std::fill_n(data.begin() + i * disk->page_size(), disk->page_size(),
                static_cast<char>('a' + i));
  }
  ASSERT_TRUE(disk->WriteRun(first, n, data.data()).ok());
  EXPECT_EQ(disk->stats().write_calls, 1u);
  EXPECT_EQ(disk->stats().pages_written, n);
  std::vector<char> buf(n * disk->page_size());
  ASSERT_TRUE(disk->ReadRun(first, n, buf.data()).ok());
  EXPECT_EQ(disk->stats().read_calls, 1u);
  EXPECT_EQ(disk->stats().pages_read, n);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), buf.size()), 0);
}

TEST_P(VolumeTest, RunStartingMidExtentSpansBoundary) {
  auto disk = Make(TinyExtents());
  ASSERT_TRUE(disk->AllocateRun(3).ok());               // pages 0..2
  const PageId first = disk->AllocateRun(4).value();    // pages 3..6
  EXPECT_EQ(first, 3u);
  std::vector<char> data(4 * disk->page_size(), 'S');
  ASSERT_TRUE(disk->WriteRun(first, 4, data.data()).ok());
  std::vector<char> buf(disk->page_size());
  for (PageId id = first; id < first + 4; ++id) {
    ASSERT_TRUE(disk->ReadRun(id, 1, buf.data()).ok());
    EXPECT_EQ(buf[0], 'S') << "page " << id;
  }
}

TEST_P(VolumeTest, FreshPagesZeroFilledAcrossManyExtents) {
  auto disk = Make(TinyExtents());
  const uint32_t n = 4 * disk->pages_per_extent() + 2;
  const PageId first = disk->AllocateRun(n).value();
  std::vector<char> buf(n * disk->page_size(), 'x');
  ASSERT_TRUE(disk->ReadRun(first, n, buf.data()).ok());
  for (char c : buf) ASSERT_EQ(c, '\0');
}

TEST_P(VolumeTest, PeekPageIsUnmeteredAndStable) {
  auto disk = Make(TinyExtents());
  const PageId id = disk->AllocateRun(6).value() + 5;
  auto data = Pattern(disk->page_size(), 'P');
  ASSERT_TRUE(disk->WriteRun(id, 1, data.data()).ok());
  disk->ResetStats();
  if (!disk->supports_zero_copy()) {
    // No memory image: PeekPage is documented to return nullptr for every
    // id (and is still not an I/O).
    EXPECT_EQ(disk->PeekPage(id), nullptr);
    EXPECT_EQ(disk->stats().TotalCalls(), 0u);
    return;
  }
  const char* view = disk->PeekPage(id);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view[0], 'P');
  EXPECT_EQ(disk->stats().TotalCalls(), 0u);  // peeking is not an I/O
  // Growing the volume must not move existing pages.
  ASSERT_TRUE(disk->AllocateRun(64).ok());
  EXPECT_EQ(disk->PeekPage(id), view);
  // Out of range -> nullptr.
  EXPECT_EQ(disk->PeekPage(disk->page_count()), nullptr);
  EXPECT_EQ(disk->PeekPage(kInvalidPageId), nullptr);
}

TEST_P(VolumeTest, WritePageUnmeteredAppliesWithoutCounting) {
  auto disk = Make(TinyExtents());
  const PageId id = disk->AllocateRun(3).value() + 2;
  auto data = Pattern(disk->page_size(), 'U');
  disk->ResetStats();
  ASSERT_TRUE(disk->WritePageUnmetered(id, data.data()).ok());
  EXPECT_EQ(disk->stats().TotalCalls(), 0u);  // deliberately uncounted
  std::vector<char> buf(disk->page_size());
  ASSERT_TRUE(disk->ReadRun(id, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 'U');
  EXPECT_EQ(buf[disk->page_size() - 1], 'U');
}

TEST_P(VolumeTest, ReadRunZeroCopyViewsAndAccounting) {
  auto disk = Make(TinyExtents());
  const uint32_t n = 9;  // spans three extents
  const PageId first = disk->AllocateRun(n).value();
  std::vector<const char*> views;
  if (!disk->supports_zero_copy()) {
    EXPECT_TRUE(disk->ReadRunZeroCopy(first, n, &views).IsNotSupported());
    EXPECT_EQ(disk->stats().read_calls, 0u);
    return;
  }
  std::vector<char> data(n * disk->page_size());
  for (uint32_t i = 0; i < n; ++i) {
    std::fill_n(data.begin() + i * disk->page_size(), disk->page_size(),
                static_cast<char>('0' + i));
  }
  ASSERT_TRUE(disk->WriteRun(first, n, data.data()).ok());
  disk->ResetStats();
  ASSERT_TRUE(disk->ReadRunZeroCopy(first, n, &views).ok());
  EXPECT_EQ(disk->stats().read_calls, 1u);
  EXPECT_EQ(disk->stats().pages_read, n);
  ASSERT_EQ(views.size(), n);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(views[i][0], static_cast<char>('0' + i)) << "page " << i;
  }
  EXPECT_TRUE(disk->ReadRunZeroCopy(first + n, 1, &views).IsOutOfRange());
  EXPECT_TRUE(disk->ReadRunZeroCopy(first, 0, &views).IsInvalidArgument());
}

TEST_P(VolumeTest, ZeroCopyPointersStableAcrossReads) {
  auto disk = Make(TinyExtents());
  if (!disk->supports_zero_copy()) {
    GTEST_SKIP() << "backend has no memory image (supports_zero_copy false)";
  }
  const uint32_t n = 8;
  const PageId first = disk->AllocateRun(n).value();
  std::vector<const char*> views1, views2;
  ASSERT_TRUE(disk->ReadRunZeroCopy(first, n, &views1).ok());
  // Grow the volume, write through the copying API, read again: the views
  // must be the same addresses and observe the new bytes.
  ASSERT_TRUE(disk->AllocateRun(3 * disk->pages_per_extent()).ok());
  auto data = Pattern(disk->page_size(), 'Z');
  ASSERT_TRUE(disk->WriteRun(first + 2, 1, data.data()).ok());
  ASSERT_TRUE(disk->ReadRunZeroCopy(first, n, &views2).ok());
  ASSERT_EQ(views1.size(), views2.size());
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(views1[i], views2[i]);
  EXPECT_EQ(views2[2][0], 'Z');
}

TEST_P(VolumeTest, ReadChainedZeroCopyViewsAndAccounting) {
  auto disk = Make(TinyExtents());
  ASSERT_TRUE(disk->AllocateRun(12).ok());
  std::vector<const char*> views;
  if (!disk->supports_zero_copy()) {
    EXPECT_TRUE(disk->ReadChainedZeroCopy({2, 11, 0}, &views)
                    .IsNotSupported());
    EXPECT_EQ(disk->stats().read_calls, 0u);
    return;
  }
  auto a = Pattern(disk->page_size(), 'a');
  auto b = Pattern(disk->page_size(), 'b');
  ASSERT_TRUE(disk->WriteChained({2, 11}, {a.data(), b.data()}).ok());
  disk->ResetStats();
  ASSERT_TRUE(disk->ReadChainedZeroCopy({2, 11, 0}, &views).ok());
  EXPECT_EQ(disk->stats().read_calls, 1u);
  EXPECT_EQ(disk->stats().pages_read, 3u);
  ASSERT_EQ(views.size(), 3u);
  EXPECT_EQ(views[0][0], 'a');
  EXPECT_EQ(views[1][0], 'b');
  EXPECT_EQ(views[2][0], '\0');
  EXPECT_TRUE(disk->ReadChainedZeroCopy({}, &views).IsInvalidArgument());
  EXPECT_TRUE(disk->ReadChainedZeroCopy({99}, &views).IsOutOfRange());
}

TEST_P(VolumeTest, DefaultGeometryLargeVolumeRoundTrips) {
  auto disk = Make();  // 2 KiB pages, 4 MiB extents -> 2048 pages per extent
  const uint32_t n = disk->pages_per_extent() + 3;  // forces a second extent
  const PageId first = disk->AllocateRun(n).value();
  // Last page of extent 0 and first page of extent 1.
  const PageId boundary = first + disk->pages_per_extent() - 1;
  std::vector<char> two(2 * disk->page_size(), 'E');
  ASSERT_TRUE(disk->WriteRun(boundary, 2, two.data()).ok());
  std::vector<char> buf(2 * disk->page_size());
  ASSERT_TRUE(disk->ReadRun(boundary, 2, buf.data()).ok());
  EXPECT_EQ(buf[0], 'E');
  EXPECT_EQ(buf[2 * disk->page_size() - 1], 'E');
}

// The async read pair is part of the Volume interface: every backend must
// serve SubmitReadChained/CompleteRead with bytes and accounting identical
// to a blocking ReadChained. Every backend, direct included, runs the base
// implementation, which completes inside Submit and returns the 0 "already
// done" ticket.
TEST_P(VolumeTest, AsyncReadChainedMatchesBlocking) {
  auto disk = Make(TinyExtents());
  const uint32_t page = disk->page_size();
  ASSERT_TRUE(disk->AllocateRun(9).ok());
  std::vector<char> data(page);
  for (PageId id = 0; id < 9; ++id) {
    std::fill(data.begin(), data.end(), static_cast<char>('a' + id));
    ASSERT_TRUE(disk->WriteRun(id, 1, data.data()).ok());
  }
  const std::vector<PageId> ids = {7, 0, 4, 8};  // crosses extents, unsorted

  std::vector<char> blocking(ids.size() * page);
  std::vector<char*> blocking_ptrs;
  for (size_t i = 0; i < ids.size(); ++i) {
    blocking_ptrs.push_back(blocking.data() + i * page);
  }
  ASSERT_TRUE(disk->ReadChained(ids, blocking_ptrs).ok());
  const IoStats before = disk->stats();

  AlignedBuffer staging;
  ASSERT_TRUE(staging.Reserve(ids.size() * page, 4096));
  std::vector<char*> async_ptrs;
  for (size_t i = 0; i < ids.size(); ++i) {
    async_ptrs.push_back(staging.data() + i * page);
  }
  auto ticket_or = disk->SubmitReadChained(ids, async_ptrs);
  ASSERT_TRUE(ticket_or.ok()) << ticket_or.status().ToString();
  // Accounting lands at submit, exactly one call and N page reads.
  const IoStats submitted = disk->stats();
  EXPECT_EQ(submitted.read_calls, before.read_calls + 1);
  EXPECT_EQ(submitted.pages_read, before.pages_read + ids.size());
  ASSERT_TRUE(disk->CompleteRead(ticket_or.value()).ok());
  EXPECT_EQ(std::memcmp(staging.data(), blocking.data(), blocking.size()), 0);
  // Completion charges nothing further.
  EXPECT_EQ(disk->stats().read_calls, submitted.read_calls);
  EXPECT_EQ(disk->stats().pages_read, submitted.pages_read);
  // The 0 sentinel is always a valid, idempotent no-op ticket.
  EXPECT_TRUE(disk->CompleteRead(0).ok());
}

// Misaligned destination buffers must be served through the async entry
// point too (on the direct backend the ReadChained underneath bounces
// them) — callers never need to care.
TEST_P(VolumeTest, AsyncReadChainedToleratesMisalignedBuffers) {
  auto disk = Make(TinyExtents());
  const uint32_t page = disk->page_size();
  ASSERT_TRUE(disk->AllocateRun(5).ok());
  std::vector<char> data(page);
  for (PageId id = 0; id < 5; ++id) {
    std::fill(data.begin(), data.end(), static_cast<char>('0' + id));
    ASSERT_TRUE(disk->WriteRun(id, 1, data.data()).ok());
  }
  std::vector<char> raw(3 * page + 1);
  char* misaligned = raw.data() + 1;
  const std::vector<PageId> ids = {4, 1, 2};
  auto ticket_or = disk->SubmitReadChained(
      ids, {misaligned, misaligned + page, misaligned + 2 * page});
  ASSERT_TRUE(ticket_or.ok()) << ticket_or.status().ToString();
  ASSERT_TRUE(disk->CompleteRead(ticket_or.value()).ok());
  EXPECT_EQ(misaligned[0], '4');
  EXPECT_EQ(misaligned[page], '1');
  EXPECT_EQ(misaligned[2 * page], '2');
  EXPECT_EQ(misaligned[3 * page - 1], '2');
}

// Registered-I/O-memory bounce conformance (the aligned_buffer satellite):
// registering a frame arena must not change what any read/write path
// returns — aligned destinations inside the registered region, misaligned
// caller buffers bouncing through the internal AlignedBuffer, and mixes of
// both in one chained call all round-trip byte-identical on every backend
// (mem/mmap treat registration as a no-op; direct turns eligible reads
// into READ_FIXED against the registered region when the kernel allows).
TEST_P(VolumeTest, RegisteredMemoryMixedAlignmentRoundTrips) {
  auto disk = Make(TinyExtents());
  const uint32_t page = disk->page_size();
  ASSERT_TRUE(disk->AllocateRun(8).ok());
  std::vector<char> data(page);
  for (PageId id = 0; id < 8; ++id) {
    std::fill(data.begin(), data.end(), static_cast<char>('A' + id));
    ASSERT_TRUE(disk->WriteRun(id, 1, data.data()).ok());
  }

  // A registered "frame arena" (what the buffer pool registers)...
  AlignedBuffer arena;
  ASSERT_TRUE(arena.Reserve(4 * page, 4096));
  disk->RegisterIoMemory(arena.data(), 4 * page);
  // ...plus a deliberately misaligned caller buffer outside it.
  std::vector<char> raw(2 * page + 1);
  char* misaligned = raw.data() + 1;

  // Chained read mixing registered-arena and misaligned destinations.
  const std::vector<PageId> ids = {6, 2, 5, 0};
  ASSERT_TRUE(disk->ReadChained(ids, {arena.data(), misaligned,
                                      arena.data() + page,
                                      misaligned + page})
                  .ok());
  EXPECT_EQ(arena.data()[0], 'G');
  EXPECT_EQ(misaligned[0], 'C');
  EXPECT_EQ(arena.data()[page], 'F');
  EXPECT_EQ(misaligned[page], 'A');
  EXPECT_EQ(misaligned[2 * page - 1], 'A');

  // The async pair against the registered arena.
  auto ticket_or = disk->SubmitReadChained({3, 7},
                                           {arena.data() + 2 * page,
                                            arena.data() + 3 * page});
  ASSERT_TRUE(ticket_or.ok());
  ASSERT_TRUE(disk->CompleteRead(ticket_or.value()).ok());
  EXPECT_EQ(arena.data()[2 * page], 'D');
  EXPECT_EQ(arena.data()[3 * page], 'H');

  // Writes sourced from the registered region round-trip unchanged.
  std::fill_n(arena.data(), page, 'Z');
  ASSERT_TRUE(disk->WriteRun(1, 1, arena.data()).ok());
  std::vector<char> back(page);
  ASSERT_TRUE(disk->ReadRun(1, 1, back.data()).ok());
  EXPECT_EQ(back[0], 'Z');
  EXPECT_EQ(back[page - 1], 'Z');

  // Unregistration mid-life is safe and changes nothing observable.
  disk->UnregisterIoMemory(arena.data());
  ASSERT_TRUE(disk->ReadRun(6, 1, arena.data()).ok());
  EXPECT_EQ(arena.data()[0], 'G');
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, VolumeTest,
    ::testing::Values(TestBackend::kMem, TestBackend::kMmap,
                      TestBackend::kDirect, TestBackend::kFaultMem,
                      TestBackend::kFaultDirect),
    [](const ::testing::TestParamInfo<TestBackend>& info) {
      return BackendName(info.param);
    });

TEST(IoStatsTest, SinceComputesDelta) {
  IoStats a{10, 4, 3, 2};
  IoStats b{25, 9, 8, 4};
  const IoStats d = b.Since(a);
  EXPECT_EQ(d.pages_read, 15u);
  EXPECT_EQ(d.pages_written, 5u);
  EXPECT_EQ(d.read_calls, 5u);
  EXPECT_EQ(d.write_calls, 2u);
  EXPECT_EQ(d.TotalPages(), 20u);
  EXPECT_EQ(d.TotalCalls(), 7u);
}

TEST(IoStatsTest, ToStringMentionsCounters) {
  IoStats s{1, 2, 3, 4};
  const std::string str = s.ToString();
  EXPECT_NE(str.find("pages_read=1"), std::string::npos);
  EXPECT_NE(str.find("write_calls=4"), std::string::npos);
}

}  // namespace
}  // namespace starfish
