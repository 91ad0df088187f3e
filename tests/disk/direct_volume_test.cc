// DirectVolume-specific behaviour: O_DIRECT persistence and reopen, the
// shared on-disk format with MmapVolume, device-alignment rejection, the
// io_uring-unavailable fallback, bounce-buffer correctness for misaligned
// caller buffers, and the end-to-end store + sf_fsck path over the direct
// backend.
//
// Every test skips (rather than fails) on filesystems without O_DIRECT
// support — tmpfs and overlayfs, common in containers — via the same
// runtime probe CreateVolume users are documented to rely on.

#include "disk/direct_volume.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../support/direct_probe.h"
#include "core/complex_object_store.h"
#include "disk/mmap_volume.h"
#include "disk/volume_meta.h"
#include "tools/fsck.h"
#include "util/aligned_buffer.h"

namespace starfish {
namespace {

bool DirectSupportedHere() {
  static const bool supported = test::DirectIoSupportedHere("direct_suite");
  return supported;
}

class DirectVolumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!DirectSupportedHere()) {
      GTEST_SKIP() << "filesystem has no O_DIRECT support";
    }
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_direct_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Small geometry: 512-byte pages, 4 pages per extent.
  DiskOptions Tiny() const {
    DiskOptions o;
    o.page_size = 512;
    o.extent_bytes = 2048;
    return o;
  }

  std::string dir_;
};

TEST_F(DirectVolumeTest, PersistsAcrossReopen) {
  std::vector<char> page(512);
  {
    auto disk_or = DirectVolume::Open(dir_, Tiny());
    ASSERT_TRUE(disk_or.ok()) << disk_or.status().ToString();
    auto disk = std::move(disk_or).value();
    ASSERT_TRUE(disk->AllocateRun(9).ok());  // three extents
    for (PageId id = 0; id < 9; ++id) {
      std::fill(page.begin(), page.end(), static_cast<char>('a' + id));
      ASSERT_TRUE(disk->WriteRun(id, 1, page.data()).ok());
    }
    ASSERT_TRUE(disk->Free(4).ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  auto disk_or = DirectVolume::Open(dir_, Tiny());
  ASSERT_TRUE(disk_or.ok()) << disk_or.status().ToString();
  auto disk = std::move(disk_or).value();
  EXPECT_EQ(disk->page_count(), 9u);
  EXPECT_EQ(disk->live_page_count(), 8u);
  for (PageId id = 0; id < 9; ++id) {
    ASSERT_TRUE(disk->ReadRun(id, 1, page.data()).ok());
    EXPECT_EQ(page[0], static_cast<char>('a' + id)) << "page " << id;
    EXPECT_EQ(page[511], static_cast<char>('a' + id)) << "page " << id;
  }
  EXPECT_TRUE(disk->Free(4).IsInvalidArgument());  // still freed
}

TEST_F(DirectVolumeTest, RecordedGeometryWinsOnReopen) {
  {
    auto disk_or = DirectVolume::Open(dir_, Tiny());
    ASSERT_TRUE(disk_or.ok());
    ASSERT_TRUE(disk_or.value()->AllocateRun(2).ok());
    ASSERT_TRUE(disk_or.value()->Sync().ok());
  }
  DiskOptions other;
  other.page_size = 4096;
  auto disk_or = DirectVolume::Open(dir_, other);
  ASSERT_TRUE(disk_or.ok()) << disk_or.status().ToString();
  EXPECT_EQ(disk_or.value()->page_size(), 512u);
  EXPECT_EQ(disk_or.value()->pages_per_extent(), 4u);
}

TEST_F(DirectVolumeTest, SharesOnDiskFormatWithMmap) {
  std::vector<char> page(512);
  // Write with the mmap backend...
  {
    auto mmap_or = MmapVolume::Open(dir_, Tiny());
    ASSERT_TRUE(mmap_or.ok());
    auto disk = std::move(mmap_or).value();
    ASSERT_TRUE(disk->AllocateRun(6).ok());
    std::fill(page.begin(), page.end(), 'M');
    ASSERT_TRUE(disk->WriteRun(5, 1, page.data()).ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  // ...reopen with the direct backend, read, write more...
  {
    auto direct_or = DirectVolume::Open(dir_, Tiny());
    ASSERT_TRUE(direct_or.ok()) << direct_or.status().ToString();
    auto disk = std::move(direct_or).value();
    EXPECT_EQ(disk->page_count(), 6u);
    ASSERT_TRUE(disk->ReadRun(5, 1, page.data()).ok());
    EXPECT_EQ(page[0], 'M');
    std::fill(page.begin(), page.end(), 'D');
    ASSERT_TRUE(disk->WriteRun(0, 1, page.data()).ok());
    ASSERT_TRUE(disk->Sync().ok());
  }
  // ...and reopen with mmap again: both writes visible.
  auto mmap_or = MmapVolume::Open(dir_, Tiny());
  ASSERT_TRUE(mmap_or.ok());
  ASSERT_TRUE(mmap_or.value()->ReadRun(0, 1, page.data()).ok());
  EXPECT_EQ(page[0], 'D');
  ASSERT_TRUE(mmap_or.value()->ReadRun(5, 1, page.data()).ok());
  EXPECT_EQ(page[0], 'M');
}

// The alignment-violation error: a page size no device can DMA (not a
// multiple of the 512-byte sector) is rejected at Open with a clear error,
// not discovered as EINVAL at the first transfer.
TEST_F(DirectVolumeTest, RejectsNonSectorPageSize) {
  DiskOptions bad;
  bad.page_size = 256;
  auto disk_or = DirectVolume::Open(dir_, bad);
  ASSERT_FALSE(disk_or.ok());
  EXPECT_TRUE(disk_or.status().IsInvalidArgument())
      << disk_or.status().ToString();
}

// Misaligned caller buffers must round-trip through the internal bounce
// path bit-for-bit (the buffer pool aligns its frames, but nothing forces
// arbitrary callers to).
TEST_F(DirectVolumeTest, MisalignedCallerBuffersBounce) {
  auto disk_or = DirectVolume::Open(dir_, Tiny());
  ASSERT_TRUE(disk_or.ok());
  auto disk = std::move(disk_or).value();
  ASSERT_TRUE(disk->AllocateRun(8).ok());

  std::vector<char> raw(6 * 512 + 1);
  char* misaligned = raw.data() + 1;  // definitely not sector-aligned
  for (int i = 0; i < 5 * 512; ++i) {
    misaligned[i] = static_cast<char>('A' + i % 23);
  }
  ASSERT_TRUE(disk->WriteRun(2, 5, misaligned).ok());  // crosses an extent

  std::vector<char> raw2(6 * 512 + 1);
  char* misaligned2 = raw2.data() + 1;
  ASSERT_TRUE(disk->ReadRun(2, 5, misaligned2).ok());
  EXPECT_EQ(std::memcmp(misaligned, misaligned2, 5 * 512), 0);

  // Chained ops with a mix of aligned and misaligned buffers.
  std::vector<char> aligned(512);
  ASSERT_TRUE(
      disk->ReadChained({3, 6}, {misaligned2, aligned.data()}).ok());
  EXPECT_EQ(std::memcmp(misaligned2, misaligned + 512, 512), 0);
}

// Forcing the ring off must be observable and produce identical bytes and
// identical meter readings to the default path — the fallback is a
// first-class citizen, not a degraded mode.
TEST_F(DirectVolumeTest, IoUringUnavailableFallbackMatches) {
  const std::string dir_uring = dir_ + "_uring";
  std::filesystem::remove_all(dir_uring);

  DirectVolumeOptions no_uring;
  no_uring.use_io_uring = false;
  auto a_or = DirectVolume::Open(dir_, Tiny(), no_uring);
  ASSERT_TRUE(a_or.ok());
  auto a = std::move(a_or).value();
  EXPECT_FALSE(a->io_uring_active());

  auto b_or = DirectVolume::Open(dir_uring, Tiny());  // ring if the kernel allows
  ASSERT_TRUE(b_or.ok());
  auto b = std::move(b_or).value();

  std::vector<char> page(512), back_a(7 * 512), back_b(7 * 512);
  for (DirectVolume* disk : {a.get(), b.get()}) {
    ASSERT_TRUE(disk->AllocateRun(7).ok());
    for (PageId id = 0; id < 7; ++id) {
      std::fill(page.begin(), page.end(), static_cast<char>('0' + id));
      ASSERT_TRUE(disk->WriteRun(id, 1, page.data()).ok());
    }
  }
  ASSERT_TRUE(a->ReadRun(0, 7, back_a.data()).ok());
  ASSERT_TRUE(b->ReadRun(0, 7, back_b.data()).ok());
  EXPECT_EQ(std::memcmp(back_a.data(), back_b.data(), back_a.size()), 0);

  ASSERT_TRUE(a->ReadChained({6, 1, 3}, {back_a.data(),
                                         back_a.data() + 512,
                                         back_a.data() + 1024})
                  .ok());
  ASSERT_TRUE(b->ReadChained({6, 1, 3}, {back_b.data(),
                                         back_b.data() + 512,
                                         back_b.data() + 1024})
                  .ok());
  EXPECT_EQ(std::memcmp(back_a.data(), back_b.data(), 3 * 512), 0);

  // Same call/page accounting regardless of the submission path.
  const IoStats sa = a->stats(), sb = b->stats();
  EXPECT_EQ(sa.read_calls, sb.read_calls);
  EXPECT_EQ(sa.pages_read, sb.pages_read);
  EXPECT_EQ(sa.write_calls, sb.write_calls);
  EXPECT_EQ(sa.pages_written, sb.pages_written);

  std::error_code ec;
  a.reset();
  b.reset();
  std::filesystem::remove_all(dir_uring, ec);
}

// Batches larger than the submission queue must be chunked correctly.
TEST_F(DirectVolumeTest, BatchesLargerThanRingDepth) {
  DirectVolumeOptions tiny_ring;
  tiny_ring.ring_depth = 2;
  auto disk_or = DirectVolume::Open(dir_, Tiny(), tiny_ring);
  ASSERT_TRUE(disk_or.ok());
  auto disk = std::move(disk_or).value();
  const uint32_t n = 21;  // many extents, > 2 ops per call
  ASSERT_TRUE(disk->AllocateRun(n).ok());
  std::vector<char> data(n * 512);
  for (uint32_t i = 0; i < n; ++i) {
    std::fill_n(data.begin() + i * 512, 512, static_cast<char>('a' + i % 26));
  }
  ASSERT_TRUE(disk->WriteRun(0, n, data.data()).ok());
  EXPECT_EQ(disk->stats().write_calls, 1u);
  EXPECT_EQ(disk->stats().pages_written, n);
  std::vector<char> back(n * 512);
  ASSERT_TRUE(disk->ReadRun(0, n, back.data()).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
}

// The async read pair keeps the base-class contract on a ring-backed
// direct volume: SubmitReadChained returns the completed ticket 0 with the
// bytes already in place, metered exactly like a blocking ReadChained.
TEST_F(DirectVolumeTest, SubmitReadChainedCompletesBeforeReturning) {
  auto disk_or = DirectVolume::Open(dir_, Tiny());
  ASSERT_TRUE(disk_or.ok());
  auto disk = std::move(disk_or).value();
  if (!disk->io_uring_active()) {
    GTEST_SKIP() << "kernel has no usable io_uring";
  }
  EXPECT_FALSE(disk->supports_async_read());
  ASSERT_TRUE(disk->AllocateRun(9).ok());  // three extents
  std::vector<char> page(512);
  for (PageId id = 0; id < 9; ++id) {
    std::fill(page.begin(), page.end(), static_cast<char>('a' + id));
    ASSERT_TRUE(disk->WriteRun(id, 1, page.data()).ok());
  }
  const std::vector<PageId> ids = {7, 0, 4, 8};  // crosses extents, unsorted
  const size_t n = ids.size();

  // Aligned destinations, so the ring reads straight into them.
  AlignedBuffer staging;
  ASSERT_TRUE(staging.Reserve(2 * n * 512, 4096));
  std::vector<char*> blocking_outs, async_outs;
  for (size_t i = 0; i < n; ++i) {
    blocking_outs.push_back(staging.data() + i * 512);
    async_outs.push_back(staging.data() + (n + i) * 512);
  }

  const IoStats before_blocking = disk->stats();
  ASSERT_TRUE(disk->ReadChained(ids, blocking_outs).ok());
  const IoStats blocking = disk->stats().Since(before_blocking);

  const IoStats before_async = disk->stats();
  auto ticket_or = disk->SubmitReadChained(ids, async_outs);
  ASSERT_TRUE(ticket_or.ok()) << ticket_or.status().ToString();
  ASSERT_EQ(ticket_or.value(), 0u);
  const IoStats async = disk->stats().Since(before_async);

  // No CompleteRead yet: the bytes have already landed.
  for (size_t i = 0; i < n; ++i) {
    const char want = static_cast<char>('a' + ids[i]);
    EXPECT_EQ(async_outs[i][0], want) << "page " << ids[i];
    EXPECT_EQ(async_outs[i][511], want) << "page " << ids[i];
  }
  EXPECT_EQ(std::memcmp(async_outs[0], blocking_outs[0], n * 512), 0);
  EXPECT_EQ(async.read_calls, blocking.read_calls);
  EXPECT_EQ(async.pages_read, blocking.pages_read);
  EXPECT_EQ(async.write_calls, 0u);
  EXPECT_EQ(async.pages_written, 0u);
  EXPECT_TRUE(disk->CompleteRead(ticket_or.value()).ok());
}

TEST_F(DirectVolumeTest, StrayExtentFilesRemovedOnFreshOpen) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream stray(dir_ + "/" + ExtentFileName(0), std::ios::binary);
    stray << std::string(2048, 'x');
  }
  auto disk_or = DirectVolume::Open(dir_, Tiny());
  ASSERT_TRUE(disk_or.ok());
  auto disk = std::move(disk_or).value();
  // The stale bytes must not surface as "fresh" page content.
  ASSERT_TRUE(disk->AllocateRun(4).ok());
  std::vector<char> page(512, 'x');
  ASSERT_TRUE(disk->ReadRun(0, 1, page.data()).ok());
  for (char c : page) ASSERT_EQ(c, '\0');
}

// The full store stack over the direct backend: put, durable checkpoint,
// reopen, read back — and the offline verifier must find the directory
// exactly as clean as an mmap-backed store's (the satellite fix: sf_fsck
// and the example understand the direct backend's files because the two
// persistent backends share one on-disk naming scheme).
TEST_F(DirectVolumeTest, StoreRoundTripAndFsckClean) {
  auto item = SchemaBuilder("Item").AddInt32("K").AddString("S").Build();
  auto doc = SchemaBuilder("Doc")
                 .AddInt32("Id")
                 .AddString("Name")
                 .AddRelation("Items", item)
                 .Build();
  StoreOptions options;
  options.backend = VolumeKind::kDirect;
  options.path = dir_;
  options.page_size = 2048;
  Tuple object{{Value::Int32(7), Value::Str("seven"),
                Value::Relation({Tuple{{Value::Int32(1), Value::Str("one")}},
                                 Tuple{{Value::Int32(2), Value::Str("two")}}})}};
  {
    auto store_or = ComplexObjectStore::Open(doc, options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    EXPECT_TRUE(store->persistent());
    ASSERT_TRUE(store->Put(7, object).ok());
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->catalog_generation(), 1u);
  }
  auto report_or = RunFsck(dir_);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_TRUE(report_or.value().clean()) << report_or.value().ToString();
  EXPECT_TRUE(report_or.value().warnings.empty())
      << report_or.value().ToString();

  auto store_or = ComplexObjectStore::Open(doc, options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto got = store_or.value()->Get(7);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), object);
}

// A store written with the mmap backend reopens with the direct backend
// (and vice versa): backend choice is an access-path decision, not a
// format decision.
TEST_F(DirectVolumeTest, StoreWrittenWithMmapReopensWithDirect) {
  auto doc = SchemaBuilder("Doc").AddInt32("Id").AddString("Name").Build();
  Tuple object{{Value::Int32(1), Value::Str("cross-backend")}};
  StoreOptions options;
  options.backend = VolumeKind::kMmap;
  options.path = dir_;
  {
    auto store_or = ComplexObjectStore::Open(doc, options);
    ASSERT_TRUE(store_or.ok());
    ASSERT_TRUE(store_or.value()->Put(1, object).ok());
    ASSERT_TRUE(store_or.value()->Flush().ok());
  }
  options.backend = VolumeKind::kDirect;
  auto store_or = ComplexObjectStore::Open(doc, options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto got = store_or.value()->GetByKey(1, Projection::All(*doc));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), object);
}

}  // namespace
}  // namespace starfish
