// The crash matrix: every fault point FaultVolume can hit during
// Put/Flush/close, simulated power loss, reopen, recovery.
//
// Protocol under test (core/generations.h + wal/wal_manager.h): WAL append
// -> volume sync -> new catalog generation file -> atomic CURRENT repoint
// -> log truncation. The invariant the matrix asserts for EVERY fault
// point:
//
//   after power loss at that point, reopening the directory yields some
//   subset S of the issued put sequence with committed <= |S| <= issued —
//   the committed checkpoint state plus whatever tail of operations the
//   write-ahead log durably captured as applied. Every committed object is
//   in S, every object in S is byte-equal to what was put, scans agree
//   with the object count, and sf_fsck reports zero inconsistencies.
//
// (Before the WAL, recovery could only roll back to the committed
// checkpoint, so the matrix asserted S == committed exactly. The log —
// which lives on the filesystem, outside the faulted volume, like a log on
// its own device — legitimately carries recovery PAST the checkpoint; the
// lower bound is what crash consistency promises, the byte-equality is
// what redo must not invent. S is usually a prefix but need not be: a put
// that failed mid-apply on the dying machine logs as aborted and is
// skipped by redo, while a later put that ran entirely in cache logged as
// applied — a legitimate hole. Shared-device power loss, where the log
// tail dies with the volume, is covered by the multi-writer WAL matrix in
// tests/wal/wal_crash_test.cc.)
//
// The harness runs the workload over FaultVolume{backend} with write
// buffering on, so un-synced page writes really vanish at power loss; the
// directory is then copied aside (the "disk as the dead machine left it")
// and recovery runs on the copy. The matrix is parameterized over the
// persistent backend as well as the storage model: the full model sweep
// runs over mmap, and a second instantiation proves the identical
// protocol guarantees over DirectVolume (skipped where the filesystem has
// no O_DIRECT) — FaultVolume's overlay flush goes through the backend-
// neutral WritePageUnmetered seam, so the same fault points apply.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "../support/direct_probe.h"
#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "core/generations.h"
#include "disk/direct_volume.h"
#include "disk/fault_volume.h"
#include "tools/fsck.h"
#include "wal/wal_format.h"

namespace starfish {
namespace {

constexpr size_t kBatchSize = 4;
constexpr size_t kBatches = 3;

bool DirectSupportedHere() {
  // kDefaultPageSize: the matrix opens real stores at the default geometry.
  static const bool supported =
      test::DirectIoSupportedHere("crash", kDefaultPageSize);
  return supported;
}

/// Receives the FaultVolume pointer out of the store's decorator seam.
struct FaultHandle {
  FaultVolume* volume = nullptr;
};

/// What one faulted run of the workload observed.
struct RunOutcome {
  size_t committed_batches = 0;  ///< explicit flushes that returned OK
  uint64_t write_calls = 0;      ///< volume write calls the run issued
  uint64_t sync_calls = 0;
  uint64_t faults_fired = 0;
};

class CrashMatrixTest
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
            ("starfish_crash_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    crash_dir_ = dir_ + "_crashed";
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(crash_dir_);

    bench::GeneratorConfig config;
    config.n_objects = kBatchSize * kBatches;
    config.seed = 97;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::remove_all(crash_dir_, ec);
  }

  StoreOptions FaultedOptions(FaultHandle* handle) {
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = dir_;
    options.volume_decorator =
        [handle](std::unique_ptr<Volume> inner) -> std::unique_ptr<Volume> {
      FaultVolumeOptions fault_options;
      fault_options.buffer_unsynced_writes = true;
      auto fault =
          std::make_unique<FaultVolume>(std::move(inner), fault_options);
      handle->volume = fault.get();
      return fault;
    };
    return options;
  }

  bool ByRef() const { return Model() != StorageModelKind::kNsm; }

  /// The workload: three Put batches; batches 1 and 2 committed by explicit
  /// Flush, batch 3 by the close-time checkpoint. `plan` arms the fault
  /// (power loss the moment it fires). Because generation numbers advance
  /// by exactly one per checkpoint in a fresh directory, the committed
  /// batch count afterwards IS the CURRENT generation — including faults
  /// that fired inside the close, where no in-process observer survives.
  RunOutcome RunWorkload(const FaultPlan& plan) {
    RunOutcome outcome;
    FaultHandle handle;
    auto store_or =
        ComplexObjectStore::Open(db_->schema(), FaultedOptions(&handle));
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    size_t explicit_commits = 0;
    {
      auto store = std::move(store_or).value();
      FaultPlan armed = plan;
      armed.power_loss_on_fault = true;
      handle.volume->SetPlan(armed);
      for (size_t batch = 0; batch < kBatches; ++batch) {
        for (size_t i = 0; i < kBatchSize; ++i) {
          const auto& object = db_->objects()[batch * kBatchSize + i];
          (void)store->Put(object.ref, object.tuple);
        }
        if (batch + 1 < kBatches && store->Flush().ok()) {
          explicit_commits = batch + 1;
        }
      }
      // Pre-close counters: the dry run sizes the matrix from these (plus
      // headroom for the close, whose counters die with the store).
      outcome.write_calls = handle.volume->write_calls_seen();
      outcome.sync_calls = handle.volume->sync_calls_seen();
      outcome.faults_fired = handle.volume->faults_fired();
      if (outcome.faults_fired > 0) {
        // The machine is dead: snapshot the disk NOW, before any
        // destructor runs — a real power loss executes no shutdown code,
        // so not even the inner volume's close-time journal append may
        // reach the image recovery runs on.
        std::filesystem::copy(dir_, crash_dir_,
                              std::filesystem::copy_options::recursive);
      }
    }  // close: the destructor checkpoint commits batch 3 — unless the
       // armed fault killed the machine first (close-phase faults are
       // snapshotted after destruction below; by then the volume was down,
       // so the destructors changed nothing the protocol relies on)

    bool found = false;
    auto current = ReadCurrentGeneration(dir_, &found);
    EXPECT_TRUE(current.ok()) << current.status().ToString();
    outcome.committed_batches =
        found ? static_cast<size_t>(current.value()) : 0;
    EXPECT_GE(outcome.committed_batches, explicit_commits);
    EXPECT_LE(outcome.committed_batches, kBatches);
    if (outcome.committed_batches < kBatches) {
      // The close did not commit, so the fault must have fired somewhere.
      outcome.faults_fired = std::max<uint64_t>(outcome.faults_fired, 1);
    }
    return outcome;
  }

  /// Reopens the post-crash copy and asserts the recovery contract: the
  /// recovered set contains every committed-checkpoint object, nothing the
  /// workload never issued, every recovered object byte-equal, and scans
  /// agreeing with the object count. The set is usually a prefix of the
  /// put sequence but may carry holes (aborted mid-apply ops are skipped
  /// by redo while later in-cache puts replayed), so each issued object is
  /// classified individually instead of assuming prefix shape.
  void VerifyRecovered(size_t committed_batches, const std::string& label) {
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = crash_dir_;
    // The verification pass runs with the object cache ON: recovery must
    // hand the cache tier a store whose every assembly reflects recovered
    // state (the cache is created empty after replay/scrub, so these
    // byte-equality checks double as the no-pre-crash-assembly contract).
    options.objcache.enabled = true;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << label << ": " << store_or.status().ToString();
    auto store = std::move(store_or).value();
    if (ByRef()) {
      ASSERT_NE(store->object_cache(), nullptr) << label;
      EXPECT_EQ(store->objcache_stats().entries, 0u)
          << label << ": reopened store did not start cache-cold";
    }

    const size_t committed = committed_batches * kBatchSize;
    const size_t issued = db_->objects().size();
    const size_t recovered = store->model()->object_count();
    EXPECT_GE(recovered, committed) << label << ": committed objects lost";
    EXPECT_LE(recovered, issued) << label << ": recovery invented objects";
    size_t present = 0;
    for (size_t i = 0; i < issued; ++i) {
      const auto& object = db_->objects()[i];
      auto got = ByRef() ? store->Get(object.ref)
                         : store->GetByKey(object.key,
                                           Projection::All(*db_->schema()));
      if (got.ok()) {
        ++present;
        EXPECT_EQ(got.value(), object.tuple) << label << " object " << i;
        if (ByRef()) {
          // The first Get populated the cache; the hit must serve the
          // identical recovered bytes.
          auto again = store->Get(object.ref);
          ASSERT_TRUE(again.ok()) << label << " object " << i;
          EXPECT_EQ(again.value(), object.tuple)
              << label << " object " << i << ": cache hit diverged";
        }
      } else {
        // Absent is only legal past the committed checkpoint, and must be
        // clean absence — any other status is recovery damage.
        EXPECT_TRUE(got.status().IsNotFound())
            << label << " object " << i << ": " << got.status().ToString();
        EXPECT_GE(i, committed)
            << label << ": committed object " << i << " lost: "
            << got.status().ToString();
      }
    }
    EXPECT_EQ(present, recovered)
        << label << ": object count disagrees with point lookups";
    if (ByRef() && present > 0) {
      EXPECT_EQ(store->objcache_stats().hits, present)
          << label << ": second Gets were not cache hits";
    }
    // Scans must agree with the object count — phantoms from torn slotted
    // pages would surface here.
    size_t scanned = 0;
    EXPECT_TRUE(store->Scan(Projection::All(*db_->schema()),
                            [&](int64_t, const Tuple&) {
                              ++scanned;
                              return Status::OK();
                            })
                    .ok())
        << label;
    EXPECT_EQ(scanned, recovered) << label;
  }

  std::string dir_;
  std::string crash_dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
};

// The full matrix: power loss at EVERY write call and EVERY sync call the
// workload issues, plus a torn variant of every write.
TEST_P(CrashMatrixTest, EveryFaultPointRecoversToCommittedGeneration) {
  // Dry run (fault index far beyond the workload) to size the matrix. The
  // close-time checkpoint's calls are part of the run, so probe the
  // directory afterwards for the real totals.
  FaultPlan never;
  never.fail_write_call = 1u << 30;
  const RunOutcome dry = RunWorkload(never);
  ASSERT_EQ(dry.faults_fired, 0u);
  ASSERT_EQ(dry.committed_batches, kBatches);  // close committed batch 3
  // dry.write_calls/sync_calls were sampled before the close; the close
  // adds one more flush (writes + 1 sync). Size the matrix generously and
  // skip cells whose fault never fires.
  const uint64_t max_writes = dry.write_calls + dry.write_calls / 2 + 8;
  const uint64_t max_syncs = dry.sync_calls + 2;

  size_t cells = 0, skipped = 0;
  for (uint64_t k = 1; k <= max_writes; ++k) {
    for (uint32_t torn : {0u, 1u}) {
      FaultPlan plan;
      plan.fail_write_call = k;
      plan.torn_pages = torn;
      const std::string label = "write_call=" + std::to_string(k) +
                                (torn ? " torn" : " lost");
      std::filesystem::remove_all(dir_);
      std::filesystem::remove_all(crash_dir_);
      const RunOutcome outcome = RunWorkload(plan);
      if (outcome.faults_fired == 0) {
        ++skipped;  // k beyond what the workload issues (incl. close)
        continue;
      }
      SCOPED_TRACE(label);
      if (!std::filesystem::exists(crash_dir_)) {
        // Close-phase fault: the pre-destruction snapshot didn't happen.
        std::filesystem::copy(dir_, crash_dir_,
                              std::filesystem::copy_options::recursive);
      }
      VerifyRecovered(outcome.committed_batches, label);
      auto report_or = RunFsck(crash_dir_);
      ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
      EXPECT_TRUE(report_or.value().clean())
          << label << "\n" << report_or.value().ToString();
      EXPECT_TRUE(report_or.value().warnings.empty())
          << label << "\n" << report_or.value().ToString();
      ++cells;
    }
  }
  for (uint64_t k = 1; k <= max_syncs; ++k) {
    FaultPlan plan;
    plan.fail_sync_call = k;
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(crash_dir_);
    const RunOutcome outcome = RunWorkload(plan);
    if (outcome.faults_fired == 0) {
      ++skipped;
      continue;
    }
    const std::string label = "sync_call=" + std::to_string(k);
    SCOPED_TRACE(label);
    if (!std::filesystem::exists(crash_dir_)) {
      std::filesystem::copy(dir_, crash_dir_,
                            std::filesystem::copy_options::recursive);
    }
    VerifyRecovered(outcome.committed_batches, label);
    auto report_or = RunFsck(crash_dir_);
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    EXPECT_TRUE(report_or.value().clean())
        << label << "\n" << report_or.value().ToString();
    ++cells;
  }
  // The matrix must actually have covered fault points in all three phases
  // (first flush, second flush, close).
  EXPECT_GE(cells, 6u) << "matrix collapsed: " << cells << " cells, "
                       << skipped << " skipped";
}

// Satellite regression: the commit point is ordered AFTER Volume::Sync. A
// checkpoint whose sync fails must leave no commit — no CURRENT, no
// generation file — because the catalog may never reference bytes the
// volume does not durably have.
TEST_P(CrashMatrixTest, CommitPointIsOrderedAfterSync) {
  FaultHandle handle;
  auto store_or =
      ComplexObjectStore::Open(db_->schema(), FaultedOptions(&handle));
  ASSERT_TRUE(store_or.ok());
  auto store = std::move(store_or).value();
  for (size_t i = 0; i < kBatchSize; ++i) {
    ASSERT_TRUE(store->Put(db_->objects()[i].ref, db_->objects()[i].tuple).ok());
  }
  FaultPlan plan;
  plan.fail_sync_call = 1;  // fail the checkpoint's sync, nothing else
  handle.volume->SetPlan(plan);
  EXPECT_FALSE(store->Flush().ok());
  // The failed checkpoint committed nothing: the commit pointer does not
  // exist and no generation file was written (the catalog write is ordered
  // after the sync, the CURRENT repoint after the catalog write).
  EXPECT_FALSE(std::filesystem::exists(CurrentPath(dir_)));
  EXPECT_TRUE(ListCatalogGenerations(dir_).empty());
  EXPECT_EQ(store->catalog_generation(), 0u);
  // The fault was one-shot; the retried checkpoint commits generation 1.
  handle.volume->ClearPlan();
  ASSERT_TRUE(store->Flush().ok());
  EXPECT_TRUE(std::filesystem::exists(CurrentPath(dir_)));
  EXPECT_EQ(store->catalog_generation(), 1u);
  bool found = false;
  auto current = ReadCurrentGeneration(dir_, &found);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(current.value(), 1u);
}

// Objcache satellite: a reopened store must NEVER serve an assembly cached
// before the crash — on either recovery path. The run populates the cache,
// then plants two distinct hazards before taking the power-loss image:
//
//   * subset X is Replaced to v2 and never re-read: its pre-crash cache
//     entries (dropped by invalidation) held v1 — if any leaked across the
//     reopen, the WAL-replay store (recovered state v2) would serve v1;
//   * subset Y is Replaced to v2 and re-read: its pre-crash entries held
//     v2 — if any leaked, the scrub store (log moved aside, recovered
//     state v1) would serve v2.
//
// Page writes are buffered by FaultVolume (they vanish at the snapshot,
// like a real power loss), while wal_sync=kAlways makes every Replace's
// record durable — so the image holds v1 pages plus a replayable v2 log
// tail, and the two reopen modes legitimately disagree about every
// replaced object. The cache may agree with neither store's pre-crash
// view; it must agree with each store's own recovery.
TEST_P(CrashMatrixTest, ObjCacheNeverServesPreCrashAssembly) {
  if (!ByRef()) {
    GTEST_SKIP() << "plain NSM has no by-ref reads, so no object cache";
  }
  const size_t issued = db_->objects().size();
  ASSERT_GE(issued, 2 * kBatchSize);
  std::vector<Tuple> v2;
  for (const auto& object : db_->objects()) {
    Tuple alt = object.tuple;
    alt.values[1] = Value::Int32(-424242);
    v2.push_back(alt);
  }
  const auto in_x = [&](size_t i) { return i < kBatchSize; };
  const auto in_y = [&](size_t i) {
    return i >= kBatchSize && i < 2 * kBatchSize;
  };

  const std::string replay_dir = dir_ + "_replay";
  const std::string scrub_dir = dir_ + "_scrub";
  std::filesystem::remove_all(replay_dir);
  std::filesystem::remove_all(scrub_dir);
  {
    FaultHandle handle;
    StoreOptions options = FaultedOptions(&handle);
    options.objcache.enabled = true;
    options.wal_sync = WalSyncPolicy::kAlways;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
    }
    ASSERT_TRUE(store->Flush().ok());  // v1 checkpoint: committed state
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store->Get(object.ref).ok());  // cache <- v1 assemblies
    }
    for (size_t i = 0; i < issued; ++i) {
      if (!in_x(i) && !in_y(i)) continue;
      ASSERT_TRUE(store->Replace(db_->objects()[i].ref, v2[i]).ok());
      if (in_y(i)) {
        auto got = store->Get(db_->objects()[i].ref);  // cache <- v2
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got.value(), v2[i]);
      }
    }
    // Power-loss images, taken while the machine still "runs": the
    // buffered (un-synced) page writes are absent, the fsync'd log tail is
    // present. One copy per recovery path.
    std::filesystem::copy(dir_, replay_dir,
                          std::filesystem::copy_options::recursive);
    std::filesystem::copy(dir_, scrub_dir,
                          std::filesystem::copy_options::recursive);
    // The store object is still alive holding cached assemblies — exactly
    // the state a pre-crash process died in. Nothing it does from here on
    // may affect the copies.
  }

  // Path 1 — WAL replay: recovered state has every replaced object at v2.
  {
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = replay_dir;
    options.objcache.enabled = true;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    EXPECT_EQ(store->objcache_stats().entries, 0u)
        << "replay reopen inherited cache entries";
    for (size_t i = 0; i < issued; ++i) {
      const Tuple& expect =
          (in_x(i) || in_y(i)) ? v2[i] : db_->objects()[i].tuple;
      for (int pass = 0; pass < 2; ++pass) {  // miss, then hit
        auto got = store->Get(db_->objects()[i].ref);
        ASSERT_TRUE(got.ok()) << "object " << i << " pass " << pass;
        EXPECT_EQ(got.value(), expect)
            << "replay store served a pre-crash assembly (object " << i
            << ", pass " << pass << ")";
      }
    }
  }

  // Path 2 — scrub: the log is moved aside (the operator's procedure for
  // a log they do not trust), so recovered state is the v1 checkpoint for
  // EVERY object (subset Y's pre-crash v2 entries are the hazard here).
  {
    ASSERT_TRUE(std::filesystem::remove(WalPath(scrub_dir)));
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = scrub_dir;
    options.objcache.enabled = true;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    EXPECT_EQ(store->objcache_stats().entries, 0u)
        << "scrub reopen inherited cache entries";
    for (size_t i = 0; i < issued; ++i) {
      for (int pass = 0; pass < 2; ++pass) {
        auto got = store->Get(db_->objects()[i].ref);
        ASSERT_TRUE(got.ok()) << "object " << i << " pass " << pass;
        EXPECT_EQ(got.value(), db_->objects()[i].tuple)
            << "scrub store served a pre-crash assembly (object " << i
            << ", pass " << pass << ")";
      }
    }
  }
  std::filesystem::remove_all(replay_dir);
  std::filesystem::remove_all(scrub_dir);
}

// Negative-cache satellite: a NotFound verdict cached before the crash
// must never suppress an object that recovery produces. The run probes a
// missing ref until the negative table answers, then Puts that very ref —
// the page writes are buffered (they vanish at power loss) while the WAL
// record is durable, so the reopened store materializes the object by
// replay. If any negative state leaked across the reopen, the replayed
// object would read as NotFound.
TEST_P(CrashMatrixTest, NegativeVerdictNeverSurvivesRecovery) {
  if (!ByRef()) {
    GTEST_SKIP() << "plain NSM has no by-ref reads, so no object cache";
  }
  const ObjectRef fresh = 9000;
  const ObjectRef never = 9001;
  Tuple tuple = db_->objects()[0].tuple;
  tuple.values[0] = Value::Int32(9000 + 1);  // fresh unique key
  const std::string image_dir = dir_ + "_negimage";
  std::filesystem::remove_all(image_dir);
  {
    FaultHandle handle;
    StoreOptions options = FaultedOptions(&handle);
    options.objcache.enabled = true;
    options.wal_sync = WalSyncPolicy::kAlways;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
    // Probe twice: the second answer provably comes from the side table.
    ASSERT_TRUE(store->Get(fresh).status().IsNotFound());
    ASSERT_TRUE(store->Get(fresh).status().IsNotFound());
    ASSERT_GE(store->objcache_stats().negative_hits, 1u);
    // Create the very object the table calls absent. Its pages are
    // volatile (FaultVolume buffers them), its log record is durable.
    ASSERT_TRUE(store->Put(fresh, tuple).ok());
    auto live = store->Get(fresh);
    ASSERT_TRUE(live.ok()) << "negative verdict outlived the Put pre-crash";
    ASSERT_EQ(live.value(), tuple);
    // Power-loss image while the process (and its cache) still lives.
    std::filesystem::copy(dir_, image_dir,
                          std::filesystem::copy_options::recursive);
  }
  {
    StoreOptions options;
    options.model = Model();
    options.backend = Backend();
    options.path = image_dir;
    options.objcache.enabled = true;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    EXPECT_EQ(store->objcache_stats().entries, 0u);
    EXPECT_EQ(store->objcache_stats().negative_hits, 0u);
    for (int pass = 0; pass < 2; ++pass) {
      auto got = store->Get(fresh);
      ASSERT_TRUE(got.ok())
          << "recovered object suppressed on pass " << pass;
      EXPECT_EQ(got.value(), tuple);
    }
    // A genuinely missing ref still answers NotFound on both the model
    // probe and the negatively-cached repeat.
    EXPECT_TRUE(store->Get(never).status().IsNotFound());
    EXPECT_TRUE(store->Get(never).status().IsNotFound());
  }
  std::filesystem::remove_all(image_dir);
}

std::string MatrixParamName(
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
    AllModels, CrashMatrixTest,
    ::testing::Combine(::testing::ValuesIn(AllStorageModelKinds()),
                       ::testing::Values(VolumeKind::kMmap)),
    MatrixParamName);

// The direct backend runs the identical matrix for two representative
// models (the paper's recommended DASDBS-NSM plus the call-heavy DSM):
// the commit protocol is model-agnostic, so two models over O_DIRECT plus
// five over mmap cover the cross product without doubling the suite's
// device traffic.
INSTANTIATE_TEST_SUITE_P(
    DirectBackend, CrashMatrixTest,
    ::testing::Combine(::testing::Values(StorageModelKind::kDasdbsNsm,
                                         StorageModelKind::kDsm),
                       ::testing::Values(VolumeKind::kDirect)),
    MatrixParamName);

}  // namespace
}  // namespace starfish
