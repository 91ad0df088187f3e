// Ring lifetime and concurrency of the reworked DirectVolume (PR 8):
// per-thread io_uring rings with centralized registry teardown.
//
// What must hold, and is asserted here:
//   - worker threads may outlive the volume: their thread-local ring slots
//     go stale when the volume dies and are swept on the next submission
//     against a NEW volume (serial-keyed slots can never match a dead
//     registry), so open/submit/close cycles from long-lived threads are
//     safe;
//   - closing a volume closes every ring fd it handed out, even while the
//     submitting threads are still alive — open/close cycles leak no fds
//     (counted via /proc/self/fd);
//   - the accessors (io_uring_active, ring_count, registered_*_active)
//     report what is actually in effect.
//
// The suite name carries "DirectRingMt" so ci/check.sh's TSan stage picks
// every test up: the per-thread-ring claim is a data-race claim, and TSan
// is the referee. Tests skip (not fail) without O_DIRECT support, like the
// rest of the direct-backend coverage.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "../support/direct_probe.h"
#include "disk/direct_volume.h"
#include "util/aligned_buffer.h"

namespace starfish {
namespace {

bool DirectSupportedHere() {
  static const bool supported = test::DirectIoSupportedHere("direct_ring_mt");
  return supported;
}

/// Open fds of this process — the leak meter for open/close cycles. The
/// iterator's own fd is included, but identically on every call, so
/// before/after comparisons are exact.
size_t OpenFdCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

class DirectRingMtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!DirectSupportedHere()) {
      GTEST_SKIP() << "filesystem has no O_DIRECT support";
    }
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_ring_mt_" +
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

  /// Opens a volume in `dir_` with 8 seeded pages (page id as fill byte).
  std::unique_ptr<DirectVolume> OpenSeeded() {
    auto disk_or = DirectVolume::Open(dir_, Tiny());
    if (!disk_or.ok()) return nullptr;
    auto disk = std::move(disk_or).value();
    if (disk->page_count() == 0) {
      if (!disk->AllocateRun(8).ok()) return nullptr;
    }
    std::vector<char> page(512);
    for (PageId id = 0; id < 8; ++id) {
      std::fill(page.begin(), page.end(), static_cast<char>('a' + id));
      if (!disk->WriteRun(id, 1, page.data()).ok()) return nullptr;
    }
    return disk;
  }

  /// One chained read against `disk` from the calling thread (submitted
  /// and completed on its ring): four pages into an aligned staging
  /// buffer, byte-checked. Returns false on any failure (EXPECTs fire too).
  static bool SubmitRound(DirectVolume* disk, AlignedBuffer* staging) {
    const uint32_t page = disk->page_size();
    if (!staging->Reserve(4 * page,
                          std::max<size_t>(4096, disk->io_buffer_alignment())))
      return false;
    const std::vector<PageId> ids = {5, 1, 6, 2};
    std::vector<char*> outs;
    for (size_t i = 0; i < ids.size(); ++i) {
      outs.push_back(staging->data() + i * page);
    }
    Status done = disk->ReadChained(ids, outs);
    EXPECT_TRUE(done.ok()) << done.ToString();
    if (!done.ok()) return false;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (staging->data()[i * page] != static_cast<char>('a' + ids[i]) ||
          staging->data()[(i + 1) * page - 1] !=
              static_cast<char>('a' + ids[i])) {
        ADD_FAILURE() << "byte mismatch on page " << ids[i];
        return false;
      }
    }
    return true;
  }

  std::string dir_;
};

// The teardown satellite's core scenario: worker threads live across
// several volume generations. Each cycle the main thread opens a fresh
// volume, the workers submit through their (now stale, serial-mismatched)
// thread-local slots — which must be swept and re-pointed, never reused —
// and the main thread destroys the volume while the workers are parked
// but very much alive.
TEST_F(DirectRingMtTest, ThreadsOutliveVolumesAcrossOpenCloseCycles) {
  constexpr int kThreads = 4;
  constexpr int kCycles = 3;

  std::mutex mu;
  std::condition_variable cv;
  DirectVolume* current = nullptr;  // guarded by mu
  int generation = 0;               // guarded by mu
  int done = 0;                     // guarded by mu
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      AlignedBuffer staging;
      for (int g = 1; g <= kCycles; ++g) {
        DirectVolume* disk = nullptr;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return generation >= g; });
          disk = current;
        }
        if (disk == nullptr || !SubmitRound(disk, &staging)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          ++done;
        }
        cv.notify_all();
      }
    });
  }

  for (int g = 1; g <= kCycles; ++g) {
    auto disk = OpenSeeded();
    ASSERT_NE(disk, nullptr) << "cycle " << g;
    {
      std::lock_guard<std::mutex> lock(mu);
      current = disk.get();
      generation = g;
      done = 0;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == kThreads; });
      current = nullptr;
    }
    // The workers are idle but alive; destroying the volume here must
    // close their rings out from under their thread-local slots.
    disk.reset();
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

// Every ring fd (and extent fd, and SQ/CQ mmap) handed out during a cycle
// must be gone when the volume closes — across several cycles, with
// multiple submitting threads per cycle, the process fd table returns to
// its starting size.
TEST_F(DirectRingMtTest, OpenSubmitCloseCyclesLeakNoFds) {
  // Warm one full cycle first: lazily-created process state (glibc
  // internals, gtest artifacts) must not count against the meter.
  {
    auto disk = OpenSeeded();
    ASSERT_NE(disk, nullptr);
    AlignedBuffer staging;
    ASSERT_TRUE(SubmitRound(disk.get(), &staging));
  }
  const size_t fds_before = OpenFdCount();
  for (int cycle = 0; cycle < 5; ++cycle) {
    auto disk = OpenSeeded();
    ASSERT_NE(disk, nullptr) << "cycle " << cycle;
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([&] {
        AlignedBuffer staging;
        for (int round = 0; round < 4; ++round) {
          SubmitRound(disk.get(), &staging);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(OpenFdCount(), fds_before);
}

// The registry grows one ring per distinct submitting thread, never more,
// and the accessors describe the effective configuration.
TEST_F(DirectRingMtTest, PerThreadModeGrowsOneRingPerThread) {
  auto disk = OpenSeeded();
  ASSERT_NE(disk, nullptr);
  if (!disk->io_uring_active()) {
    GTEST_SKIP() << "kernel has no usable io_uring; ring accounting moot";
  }

  // Main thread has submitted (seeding writes) — its ring exists.
  const size_t base = disk->ring_count();
  EXPECT_GE(base, 1u);
  EXPECT_LE(base, 2u);  // at most: main + Open's probe thread (same thread)

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      AlignedBuffer staging;
      for (int round = 0; round < 3; ++round) {
        SubmitRound(disk.get(), &staging);
      }
    });
  }
  for (auto& w : workers) w.join();
  // Each worker gets its own ring, created once and kept across rounds.
  EXPECT_GE(disk->ring_count(), base);
  EXPECT_LE(disk->ring_count(), base + kThreads);

  // Per-ring registration state for the calling thread: with both
  // registrations requested, the fd table registration is expected on any
  // kernel that granted the ring at all; fixed buffers additionally need a
  // registered region (none here) so the accessor just must not lie.
  const bool files = disk->registered_files_active();
  const bool buffers = disk->registered_buffers_active();
  (void)files;
  EXPECT_FALSE(buffers);  // nothing RegisterIoMemory'd in this test
}

// registered_buffers_active flips on for a thread whose ring covers a
// registered region, and registered reads come back byte-identical.
TEST_F(DirectRingMtTest, RegisteredBufferStateFollowsRegistration) {
  auto disk = OpenSeeded();
  ASSERT_NE(disk, nullptr);
  if (!disk->io_uring_active()) {
    GTEST_SKIP() << "kernel has no usable io_uring";
  }
  const uint32_t page = disk->page_size();
  AlignedBuffer arena;
  ASSERT_TRUE(arena.Reserve(
      4 * page, std::max<size_t>(4096, disk->io_buffer_alignment())));
  disk->RegisterIoMemory(arena.data(), 4 * page);

  std::vector<char*> outs = {arena.data(), arena.data() + page};
  ASSERT_TRUE(disk->ReadChained({2, 7}, outs).ok());
  EXPECT_EQ(arena.data()[0], 'c');
  EXPECT_EQ(arena.data()[page], 'h');
  // The registration may still be refused (RLIMIT_MEMLOCK); the accessor
  // reports the truth either way, and bytes were right above regardless.
  if (disk->registered_buffers_active()) {
    SUCCEED() << "fixed buffers in effect";
  }
  disk->UnregisterIoMemory(arena.data());
  // After unregistration the ring resyncs before its next idle submission.
  ASSERT_TRUE(disk->ReadRun(0, 1, arena.data()).ok());
  EXPECT_EQ(arena.data()[0], 'a');
  EXPECT_FALSE(disk->registered_buffers_active());
}

// Full-pressure TSan target: concurrent readers, a concurrent writer, and
// RegisterIoMemory/UnregisterIoMemory churn against live rings — every
// shared structure the rework added (registry, region list, TLS sweep) is
// exercised under contention at once.
TEST_F(DirectRingMtTest, ConcurrentSubmitWriteRegisterStress) {
  auto disk = OpenSeeded();
  ASSERT_NE(disk, nullptr);
  const uint32_t page = disk->page_size();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      AlignedBuffer staging;
      while (!stop.load(std::memory_order_relaxed)) {
        // Read only pages the writer never touches (0..3 vs writer's 4).
        if (!staging.Reserve(
                2 * page,
                std::max<size_t>(4096, disk->io_buffer_alignment()))) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        if (!disk->ReadChained({0, 3}, {staging.data(), staging.data() + page})
                 .ok() ||
            staging.data()[0] != 'a' || staging.data()[page] != 'd') {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    std::vector<char> buf(page, 'W');
    AlignedBuffer arena;
    arena.Reserve(page, std::max<size_t>(4096, disk->io_buffer_alignment()));
    for (int round = 0; round < 40; ++round) {
      if (!disk->WriteRun(4, 1, buf.data()).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      // Registration churn races against the readers' submissions.
      disk->RegisterIoMemory(arena.data(), page);
      disk->UnregisterIoMemory(arena.data());
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace starfish
