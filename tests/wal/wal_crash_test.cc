// The multi-writer WAL crash matrix: N concurrent writers under
// wal_sync = kAlways, power loss at every log-append and log-sync fault
// point — including torn variants where only a prefix of the un-synced
// log stream reaches the medium. Unlike the volume-side matrix
// (tests/integration/crash_matrix_test.cc), here the log shares the dying
// device: FaultVolume::WrapLogFile buffers appended bytes in the same
// volatile cache as un-synced page writes, so a power loss takes the log
// tail down too.
//
// The durability contract under test:
//
//   * every put whose Commit was acknowledged durable is present and
//     byte-equal after recovery — acks survive ANY of these crashes;
//   * a put that FAILED is indeterminate but atomic: fully present and
//     byte-equal, or fully absent. (Indeterminate, not absent: a
//     follower's record can reach the medium in the leader's batch right
//     before the fault poisons the manager, so the writer gets an error
//     for an op that is durable — the classic unknown-outcome commit.)
//   * with one SEQUENTIAL writer the race disappears and the contract
//     sharpens to an exact match: recovered == acked, nothing
//     unacknowledged survives a torn_log_bytes = 0 power loss;
//   * sf_fsck is spotless after recovery.
//
// Group-commit durability (kAlways: one leader fsync carries every writer
// that queued behind it) is proved by the no-fault test, which yanks the
// power after the last ack and expects every object back.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "../support/direct_probe.h"
#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "disk/fault_volume.h"
#include "tools/fsck.h"

namespace starfish {
namespace {

constexpr size_t kWriters = 4;
constexpr size_t kPerWriter = 6;

bool DirectSupportedHere() {
  static const bool supported =
      test::DirectIoSupportedHere("walcrash", kDefaultPageSize);
  return supported;
}

struct FaultHandle {
  FaultVolume* volume = nullptr;
};

/// What one faulted multi-writer run observed before the machine died.
struct CrashOutcome {
  std::set<size_t> acked;  ///< object indices whose Put returned OK
  uint64_t log_appends = 0;
  uint64_t log_syncs = 0;
  uint64_t faults_fired = 0;
};

class WalCrashTest
    : public ::testing::TestWithParam<std::tuple<StorageModelKind,
                                                 VolumeKind>> {
 protected:
  StorageModelKind Model() const { return std::get<0>(GetParam()); }
  VolumeKind Backend() const { return std::get<1>(GetParam()); }

  void SetUp() override {
    if (Backend() == VolumeKind::kDirect && !DirectSupportedHere()) {
      GTEST_SKIP() << "filesystem has no O_DIRECT support";
    }
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_walcrash_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    crash_dir_ = dir_ + "_crashed";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(crash_dir_);
    bench::GeneratorConfig config;
    config.n_objects = kWriters * kPerWriter;
    config.seed = 211;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(crash_dir_, ec);
  }

  bool ByRef() const { return Model() != StorageModelKind::kNsm; }

  StoreOptions CrashOptions(FaultHandle* handle, WalSyncPolicy sync) {
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = dir_;
    options.wal_sync = sync;
    options.volume_decorator =
        [handle](std::unique_ptr<Volume> inner) -> std::unique_ptr<Volume> {
      FaultVolumeOptions fault_options;
      fault_options.buffer_unsynced_writes = true;
      auto fault =
          std::make_unique<FaultVolume>(std::move(inner), fault_options);
      handle->volume = fault.get();
      return fault;
    };
    options.wal_log_decorator =
        [handle](std::unique_ptr<LogFile> inner) -> std::unique_ptr<LogFile> {
      return handle->volume->WrapLogFile(std::move(inner));
    };
    return options;
  }

  /// N writers race their slices of the database into a store whose log
  /// lives on the faulted device; the armed fault kills the machine
  /// mid-stream. Returns what was acknowledged before death; the disk
  /// image as the dead machine left it is in crash_dir_.
  CrashOutcome RunCrashed(const FaultPlan& plan, WalSyncPolicy sync) {
    CrashOutcome outcome;
    FaultHandle handle;
    auto store_or =
        ComplexObjectStore::Open(db_->schema(), CrashOptions(&handle, sync));
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    if (!store_or.ok()) return outcome;
    {
      auto store = std::move(store_or).value();
      FaultPlan armed = plan;
      armed.power_loss_on_fault = true;
      handle.volume->SetPlan(armed);

      std::mutex ack_mu;
      std::vector<std::thread> writers;
      writers.reserve(kWriters);
      for (size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          for (size_t i = 0; i < kPerWriter; ++i) {
            const size_t index = w * kPerWriter + i;
            const auto& object = db_->objects()[index];
            if (!store->Put(object.ref, object.tuple).ok()) {
              return;  // poisoned log or dead volume: this writer is done
            }
            std::lock_guard<std::mutex> lock(ack_mu);
            outcome.acked.insert(index);
          }
        });
      }
      for (std::thread& t : writers) t.join();

      outcome.log_appends = handle.volume->log_append_calls_seen();
      outcome.log_syncs = handle.volume->log_sync_calls_seen();
      outcome.faults_fired = handle.volume->faults_fired();
      // Snapshot the dead disk before any destructor runs (a real power
      // loss executes no shutdown code).
      std::filesystem::copy(dir_, crash_dir_,
                            std::filesystem::copy_options::recursive);
    }
    return outcome;
  }

  /// Reopens the crash image and asserts the durability contract. With
  /// `exact` (sound only for sequential writers / all-acked runs) the
  /// recovered set must BE the acked set; otherwise failed puts are
  /// indeterminate-but-atomic.
  void VerifyRecovered(const CrashOutcome& outcome, bool exact,
                       const std::string& label) {
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = crash_dir_;
    {
      auto store_or = ComplexObjectStore::Open(db_->schema(), options);
      ASSERT_TRUE(store_or.ok())
          << label << ": " << store_or.status().ToString();
      auto store = std::move(store_or).value();
      for (size_t i = 0; i < db_->objects().size(); ++i) {
        const auto& object = db_->objects()[i];
        auto got = ByRef() ? store->Get(object.ref)
                           : store->GetByKey(object.key,
                                             Projection::All(*db_->schema()));
        if (outcome.acked.count(i) > 0) {
          ASSERT_TRUE(got.ok()) << label << ": acked object " << i
                                << " lost: " << got.status().ToString();
          EXPECT_EQ(got.value(), object.tuple)
              << label << ": acked object " << i << " corrupted";
        } else if (exact) {
          EXPECT_FALSE(got.ok())
              << label << ": unacked object " << i << " resurfaced";
        } else if (got.ok()) {
          // Unknown-outcome op that turned out durable: it must still be
          // exactly the bytes the writer put — atomicity with no torn or
          // half-replayed state.
          EXPECT_EQ(got.value(), object.tuple) << label << " object " << i;
        }
      }
    }  // close checkpoints the recovered state
    auto report_or = RunFsck(crash_dir_);
    ASSERT_TRUE(report_or.ok()) << label;
    EXPECT_TRUE(report_or.value().clean())
        << label << "\n" << report_or.value().ToString();
    EXPECT_TRUE(report_or.value().warnings.empty())
        << label << "\n" << report_or.value().ToString();
  }

  void ResetDirs() {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(crash_dir_);
  }

  std::string dir_;
  std::string crash_dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
};

// Power loss at every log-append and log-sync call the workload issues
// (capped: the writer race reaches steady state within the first dozen
// epochs, later fault points repeat the same shape), lost and torn.
TEST_P(WalCrashTest, EveryLogFaultPointKeepsAckedPutsAndOnlyThose) {
  // Dry run to size the matrix.
  FaultPlan never;
  never.fail_log_append = 1u << 30;
  const CrashOutcome dry = RunCrashed(never, WalSyncPolicy::kAlways);
  ASSERT_EQ(dry.faults_fired, 0u);
  ASSERT_EQ(dry.acked.size(), db_->objects().size());
  ASSERT_GT(dry.log_appends, 0u);
  ASSERT_GT(dry.log_syncs, 0u);

  constexpr uint64_t kCap = 12;
  size_t cells = 0;
  for (uint64_t k = 1; k <= std::min(dry.log_appends + 2, kCap); ++k) {
    for (uint64_t torn_bytes : {uint64_t{0}, uint64_t{64}}) {
      FaultPlan plan;
      plan.fail_log_append = k;
      plan.torn_log_bytes = torn_bytes;
      const std::string label =
          "log_append=" + std::to_string(k) +
          (torn_bytes ? " torn" : " lost");
      SCOPED_TRACE(label);
      ResetDirs();
      const CrashOutcome outcome = RunCrashed(plan, WalSyncPolicy::kAlways);
      if (outcome.faults_fired == 0) continue;
      VerifyRecovered(outcome, /*exact=*/false, label);
      ++cells;
    }
  }
  for (uint64_t k = 1; k <= std::min(dry.log_syncs + 2, kCap); ++k) {
    for (uint64_t torn_bytes : {uint64_t{0}, uint64_t{64}}) {
      FaultPlan plan;
      plan.fail_log_sync = k;
      plan.torn_log_bytes = torn_bytes;
      const std::string label =
          "log_sync=" + std::to_string(k) + (torn_bytes ? " torn" : " lost");
      SCOPED_TRACE(label);
      ResetDirs();
      const CrashOutcome outcome = RunCrashed(plan, WalSyncPolicy::kAlways);
      if (outcome.faults_fired == 0) continue;
      VerifyRecovered(outcome, /*exact=*/false, label);
      ++cells;
    }
  }
  EXPECT_GE(cells, 8u) << "matrix collapsed";
}

// One sequential writer: each put is fully durable and acknowledged
// before the next is issued, so the indeterminacy window closes and a
// torn_log_bytes = 0 power loss must recover EXACTLY the acked prefix.
TEST_P(WalCrashTest, SingleWriterRecoversExactlyTheAckedPuts) {
  for (uint64_t k : {uint64_t{1}, uint64_t{3}, uint64_t{8}}) {
    for (bool sync_fault : {false, true}) {
      FaultPlan plan;
      if (sync_fault) {
        plan.fail_log_sync = k;
      } else {
        plan.fail_log_append = k;
      }
      const std::string label = std::string(sync_fault ? "sync" : "append") +
                                "=" + std::to_string(k);
      SCOPED_TRACE(label);
      ResetDirs();
      CrashOutcome outcome;
      FaultHandle handle;
      auto store_or = ComplexObjectStore::Open(
          db_->schema(), CrashOptions(&handle, WalSyncPolicy::kAlways));
      ASSERT_TRUE(store_or.ok());
      {
        auto store = std::move(store_or).value();
        FaultPlan armed = plan;
        armed.power_loss_on_fault = true;
        handle.volume->SetPlan(armed);
        for (size_t i = 0; i < db_->objects().size(); ++i) {
          if (!store->Put(db_->objects()[i].ref, db_->objects()[i].tuple)
                   .ok()) {
            break;
          }
          outcome.acked.insert(i);
        }
        outcome.faults_fired = handle.volume->faults_fired();
        std::filesystem::copy(dir_, crash_dir_,
                              std::filesystem::copy_options::recursive);
      }
      if (outcome.faults_fired == 0) continue;
      EXPECT_LT(outcome.acked.size(), db_->objects().size()) << label;
      VerifyRecovered(outcome, /*exact=*/true, label);
    }
  }
}

// Checkpoint fault point: power loss inside an explicit Flush — on the
// volume sync that precedes the catalog commit — after every writer was
// acked. Every acked put must survive even though the checkpoint it was
// riding on died with the machine. (Under kAlways the checkpoint itself
// issues no log I/O: every record is already durable, so the log-side
// fault points of the checkpoint are its volume writes and sync.)
TEST_P(WalCrashTest, PowerLossInsideTheCheckpointKeepsEveryAckedPut) {
  FaultHandle handle;
  auto store_or = ComplexObjectStore::Open(
      db_->schema(), CrashOptions(&handle, WalSyncPolicy::kAlways));
  ASSERT_TRUE(store_or.ok());
  CrashOutcome outcome;
  {
    auto store = std::move(store_or).value();
    for (size_t i = 0; i < db_->objects().size(); ++i) {
      ASSERT_TRUE(
          store->Put(db_->objects()[i].ref, db_->objects()[i].tuple).ok());
      outcome.acked.insert(i);
    }
    FaultPlan plan;
    plan.fail_sync_call = handle.volume->sync_calls_seen() + 1;
    plan.power_loss_on_fault = true;
    handle.volume->SetPlan(plan);
    EXPECT_FALSE(store->Flush().ok());
    EXPECT_GT(handle.volume->faults_fired(), 0u);
    std::filesystem::copy(dir_, crash_dir_,
                          std::filesystem::copy_options::recursive);
  }
  VerifyRecovered(outcome, /*exact=*/true, "checkpoint sync fault");
}

// The group-commit durability proof: concurrent writers under kAlways, one
// leader fsync acknowledging whole epochs; power yanked right after the
// last ack, with no fault armed. Every acked put must be in the recovered
// store.
TEST_P(WalCrashTest, ConcurrentCommitAcksSurvivePowerLoss) {
  FaultHandle handle;
  auto store_or = ComplexObjectStore::Open(
      db_->schema(), CrashOptions(&handle, WalSyncPolicy::kAlways));
  ASSERT_TRUE(store_or.ok());
  CrashOutcome outcome;
  {
    auto store = std::move(store_or).value();
    std::mutex ack_mu;
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (size_t i = 0; i < kPerWriter; ++i) {
          const size_t index = w * kPerWriter + i;
          const auto& object = db_->objects()[index];
          ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
          std::lock_guard<std::mutex> lock(ack_mu);
          outcome.acked.insert(index);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    // Acks delivered; the machine dies before any checkpoint.
    handle.volume->SimulatePowerLoss();
    std::filesystem::copy(dir_, crash_dir_,
                          std::filesystem::copy_options::recursive);
  }
  ASSERT_EQ(outcome.acked.size(), db_->objects().size());
  VerifyRecovered(outcome, /*exact=*/true, "group commit");
}

// The transaction rows of the crash matrix. One run stages all four txn
// outcomes, then the power fails with one transaction still open — the
// "crash between kTxnBegin and kTxnCommit" cell:
//
//   * a COMMITTED transaction survives byte-for-byte (its commit marker
//     made the whole unit durable);
//   * a ROLLED-BACK transaction never resurfaces (compensations + abort
//     marker share its id, replay skips them all);
//   * an OPEN transaction's ops are durable in the log but carry no
//     commit marker — recovery rolls them back wholesale;
//   * the autonomous put riding alongside replays normally.
//
// sf_fsck on the raw crash image reports the dangling kTxnBegin as a
// warning (a crash artifact), never an error; after recovery it is clean.
TEST_P(WalCrashTest, TxnCrashBetweenBeginAndCommitRollsBackOnlyThatTxn) {
  constexpr size_t kTxnSize = 6;
  const size_t committed_lo = 0;               // txn 1: commits
  const size_t rolled_lo = kTxnSize;           // txn 2: rolls back
  const size_t autonomous = 2 * kTxnSize;      // plain put
  const size_t open_lo = 2 * kTxnSize + 1;     // txn 3: still open at crash
  ASSERT_GE(db_->objects().size(), open_lo + kTxnSize);

  FaultHandle handle;
  auto store_or = ComplexObjectStore::Open(
      db_->schema(), CrashOptions(&handle, WalSyncPolicy::kAlways));
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  {
    auto store = std::move(store_or).value();
    {
      auto txn_or = store->Begin();
      ASSERT_TRUE(txn_or.ok());
      auto txn = std::move(txn_or).value();
      for (size_t i = committed_lo; i < committed_lo + kTxnSize; ++i) {
        const auto& object = db_->objects()[i];
        ASSERT_TRUE(txn.Put(object.ref, object.tuple).ok());
      }
      ASSERT_TRUE(txn.Commit().ok());
    }
    {
      auto txn_or = store->Begin();
      ASSERT_TRUE(txn_or.ok());
      auto txn = std::move(txn_or).value();
      for (size_t i = rolled_lo; i < rolled_lo + kTxnSize; ++i) {
        const auto& object = db_->objects()[i];
        ASSERT_TRUE(txn.Put(object.ref, object.tuple).ok());
      }
      ASSERT_TRUE(txn.Rollback().ok());
    }
    auto open_txn_or = store->Begin();
    ASSERT_TRUE(open_txn_or.ok());
    auto open_txn = std::move(open_txn_or).value();
    for (size_t i = open_lo; i < open_lo + kTxnSize; ++i) {
      const auto& object = db_->objects()[i];
      ASSERT_TRUE(open_txn.Put(object.ref, object.tuple).ok());
    }
    // The autonomous put's kAlways wait drags every earlier record —
    // including the open txn's ops — onto the medium. The open txn is now
    // fully durable EXCEPT for its commit marker: the hard case.
    ASSERT_TRUE(store->Put(db_->objects()[autonomous].ref,
                           db_->objects()[autonomous].tuple).ok());
    handle.volume->SimulatePowerLoss();
    std::filesystem::copy(dir_, crash_dir_,
                          std::filesystem::copy_options::recursive);
    // Dropping the open handle auto-rollbacks against a dead volume: it
    // must fail quietly, not hang — and the crash image is already taken.
  }

  {
    auto report_or = RunFsck(crash_dir_);
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    EXPECT_TRUE(report_or.value().clean())
        << "dangling begin reported as an error\n"
        << report_or.value().ToString();
    bool warned = false;
    for (const std::string& w : report_or.value().warnings) {
      if (w.find("no commit or abort") != std::string::npos) warned = true;
    }
    EXPECT_TRUE(warned) << "no dangling-begin warning\n"
                        << report_or.value().ToString();
  }

  StoreOptions options;
  options.model = Model();
  options.backend = Backend();
  options.path = crash_dir_;
  {
    auto reopened_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    auto reopened = std::move(reopened_or).value();
    auto read = [&](size_t i) {
      const auto& object = db_->objects()[i];
      return ByRef() ? reopened->Get(object.ref)
                     : reopened->GetByKey(object.key,
                                          Projection::All(*db_->schema()));
    };
    for (size_t i = committed_lo; i < committed_lo + kTxnSize; ++i) {
      auto got = read(i);
      ASSERT_TRUE(got.ok()) << "committed-txn object " << i
                            << " lost: " << got.status().ToString();
      EXPECT_EQ(got.value(), db_->objects()[i].tuple)
          << "committed-txn object " << i << " corrupted";
    }
    for (size_t i = rolled_lo; i < rolled_lo + kTxnSize; ++i) {
      EXPECT_FALSE(read(i).ok())
          << "rolled-back object " << i << " resurfaced";
    }
    {
      auto got = read(autonomous);
      ASSERT_TRUE(got.ok()) << "autonomous put lost";
      EXPECT_EQ(got.value(), db_->objects()[autonomous].tuple);
    }
    for (size_t i = open_lo; i < open_lo + kTxnSize; ++i) {
      EXPECT_FALSE(read(i).ok())
          << "uncommitted object " << i << " surfaced after the crash";
    }
  }  // close checkpoints the recovered state
  auto report_or = RunFsck(crash_dir_);
  ASSERT_TRUE(report_or.ok());
  EXPECT_TRUE(report_or.value().clean()) << report_or.value().ToString();
  EXPECT_TRUE(report_or.value().warnings.empty())
      << report_or.value().ToString();
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<StorageModelKind, VolumeKind>>&
        info) {
  std::string name = ToString(std::get<0>(info.param)) + "_" +
                     ToString(std::get<1>(info.param));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, WalCrashTest,
    ::testing::Combine(::testing::ValuesIn(AllStorageModelKinds()),
                       ::testing::Values(VolumeKind::kMmap)),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    DirectBackend, WalCrashTest,
    ::testing::Combine(::testing::Values(StorageModelKind::kDasdbsNsm,
                                         StorageModelKind::kDsm),
                       ::testing::Values(VolumeKind::kDirect)),
    ParamName);

}  // namespace
}  // namespace starfish
