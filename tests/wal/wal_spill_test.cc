// The kNone spill path: with wal_sync = kNone no commit ever reaches the
// log file, so between checkpoints the framed records would pile up in
// memory. Once they reach kWalSpillBytes the manager appends them to the
// file un-synced. These tests drive that path on an mmap store:
//
//   * logging past kWalSpillBytes grows wal.log before any Flush;
//   * a failed spill append poisons the log: the op that hit it fails, the
//     next write fails fast, and Flush refuses to checkpoint;
//   * a reopen then recovers exactly the last checkpoint, and sf_fsck
//     reports the directory clean.
//
// The workload is one object replaced over and over (with the tuples of
// its neighbours), so the log grows while the page count stays small and
// the buffer pool never writes back: the only log appends are spills.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "disk/fault_volume.h"
#include "tools/fsck.h"
#include "wal/wal_format.h"
#include "wal/wal_manager.h"

namespace starfish {
namespace {

/// Replaces past this many would log several times kWalSpillBytes: a test
/// that reaches it has lost its spill.
constexpr size_t kMaxReplaces = 20000;

class WalSpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_walspill_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    bench::GeneratorConfig config;
    config.n_objects = 8;
    config.seed = 29;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StoreOptions Options() const {
    StoreOptions options;
    options.model = StorageModelKind::kDsm;
    options.backend = VolumeKind::kMmap;
    options.path = dir_;
    options.wal_sync = WalSyncPolicy::kNone;
    return options;
  }

  uint64_t LogSize() const {
    return std::filesystem::file_size(WalPath(dir_));
  }

  /// The tuple of object 1 + i % (n - 1) under object 0's key (keys are
  /// immutable).
  Tuple ReplacementTuple(size_t i) const {
    Tuple tuple = db_->objects()[1 + i % (db_->objects().size() - 1)].tuple;
    tuple.values[0] = db_->objects()[0].tuple.values[0];
    return tuple;
  }

  /// Puts every object and checkpoints.
  void LoadAndFlush(ComplexObjectStore* store) {
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }

  /// The store holds exactly the loaded objects, as LoadAndFlush put them,
  /// and sf_fsck reports the directory clean.
  void ExpectCheckpointRecovered() {
    {
      auto store_or = ComplexObjectStore::Open(db_->schema(), Options());
      ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
      auto store = std::move(store_or).value();
      for (const auto& object : db_->objects()) {
        auto got = store->Get(object.ref);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), object.tuple) << "object " << object.ref;
      }
    }
    auto report = RunFsck(dir_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().clean()) << report.value().ToString();
  }

  std::string dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
};

TEST_F(WalSpillTest, LoggingPastTheSpillSizeGrowsTheLogBeforeAnyFlush) {
  auto store_or = ComplexObjectStore::Open(db_->schema(), Options());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();
  LoadAndFlush(store.get());

  // The checkpoint truncated the log; under kNone nothing appends to it
  // until the pending records reach the spill size.
  const uint64_t truncated = LogSize();
  size_t replaces = 0;
  while (LogSize() == truncated && replaces < kMaxReplaces) {
    const Status st = store->Replace(0, ReplacementTuple(replaces));
    ASSERT_TRUE(st.ok()) << st.ToString();
    ++replaces;
  }
  ASSERT_LT(replaces, kMaxReplaces) << "wal.log never grew before Flush";
  // One spill carries the whole pending buffer: at least kWalSpillBytes.
  EXPECT_GE(LogSize() - truncated, kWalSpillBytes);
  EXPECT_GT(replaces, 1u);

  // The spilled records are un-synced but part of the log: the checkpoint
  // that follows succeeds and the store reads back the last replacement.
  ASSERT_TRUE(store->Flush().ok());
  auto got = store->Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), ReplacementTuple(replaces - 1));
}

TEST_F(WalSpillTest, FailedSpillPoisonsTheLogAndReopenRecoversTheCheckpoint) {
  FaultVolume* fault = nullptr;
  StoreOptions options = Options();
  options.volume_decorator =
      [&fault](std::unique_ptr<Volume> inner) -> std::unique_ptr<Volume> {
    auto wrapped = std::make_unique<FaultVolume>(std::move(inner));
    fault = wrapped.get();
    return wrapped;
  };
  options.wal_log_decorator =
      [&fault](std::unique_ptr<LogFile> inner) -> std::unique_ptr<LogFile> {
    return fault->WrapLogFile(std::move(inner));
  };
  {
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    LoadAndFlush(store.get());

    // The next log append is the spill: fail it.
    fault->ResetFaultCounters();
    FaultPlan plan;
    plan.fail_log_append = 1;
    fault->SetPlan(plan);
    size_t replaces = 0;
    Status failed = Status::OK();
    while (replaces < kMaxReplaces) {
      failed = store->Replace(0, ReplacementTuple(replaces));
      if (!failed.ok()) break;
      ++replaces;
    }
    ASSERT_FALSE(failed.ok()) << "the spill never ran";
    EXPECT_EQ(fault->faults_fired(), 1u);
    EXPECT_EQ(fault->log_append_calls_seen(), 1u);
    EXPECT_GT(replaces, 0u) << "the first op cannot fill the spill buffer";

    // Poisoned: writes fail fast with the spill's error without touching
    // the log again, and the checkpoint refuses to advance past records
    // that never reached it.
    EXPECT_EQ(store->Replace(0, ReplacementTuple(0)).ToString(),
              failed.ToString());
    EXPECT_EQ(store->Remove(1).ToString(), failed.ToString());
    EXPECT_FALSE(store->Flush().ok());
    EXPECT_EQ(fault->log_append_calls_seen(), 1u);
  }  // destructor: best-effort flush fails on the poisoned log

  ExpectCheckpointRecovered();
}

}  // namespace
}  // namespace starfish
