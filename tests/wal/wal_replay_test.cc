// Torn-tail WAL replay, store level: a crashed directory whose log tail
// was truncated or bit-flipped at EVERY record boundary and mid-record
// must reopen to the committed checkpoint plus exactly the ops of the
// log's remaining valid prefix — across all five storage models. An
// unusable log (invalid header, missing file) must fall back to the
// paranoid scrub and still reopen to the committed state. The byte-level
// scan contract these tests lean on is proved in wal_format_test.cc; the
// concurrent-writer variant with log-device power loss is
// wal_crash_test.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "tools/fsck.h"
#include "util/file_io.h"
#include "wal/wal_format.h"

namespace starfish {
namespace {

constexpr size_t kCommitted = 3;  ///< checkpointed by an explicit Flush
constexpr size_t kTail = 4;       ///< live only in the WAL at the "crash"

void WriteRawFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class WalReplayTest : public ::testing::TestWithParam<StorageModelKind> {
 protected:
  void SetUp() override {
    base_dir_ = (std::filesystem::temp_directory_path() /
                 ("starfish_walreplay_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
    variant_dir_ = base_dir_ + "_variant";
    std::filesystem::remove_all(base_dir_);
    std::filesystem::remove_all(variant_dir_);

    bench::GeneratorConfig config;
    config.n_objects = kCommitted + kTail;
    config.seed = 131;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());

    // Build the crash image once per test: commit a checkpoint, then put a
    // tail of objects whose only durable trace is the log (wal_sync =
    // kAlways fsyncs each one), and snapshot the directory while the store
    // is still open — data pages of the tail never reached the volume,
    // exactly what a crash leaves.
    StoreOptions options;
    options.model = GetParam();
    options.backend = VolumeKind::kMmap;
    options.path = base_dir_;
    options.wal_sync = WalSyncPolicy::kAlways;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = std::move(store_or).value();
    for (size_t i = 0; i < kCommitted; ++i) {
      ASSERT_TRUE(
          store_->Put(db_->objects()[i].ref, db_->objects()[i].tuple).ok());
    }
    ASSERT_TRUE(store_->Flush().ok());
    for (size_t i = kCommitted; i < db_->objects().size(); ++i) {
      ASSERT_TRUE(
          store_->Put(db_->objects()[i].ref, db_->objects()[i].tuple).ok());
    }

    // The truncation/flip sweeps need the byte offset of every record
    // boundary; re-framing the scanned records reproduces the file
    // byte-for-byte (the framing is deterministic), which is asserted so
    // the offsets are guaranteed honest.
    auto scan_or = ScanWalFile(WalPath(base_dir_));
    ASSERT_TRUE(scan_or.ok());
    scan_ = scan_or.value();
    ASSERT_TRUE(scan_.header_valid);
    ASSERT_FALSE(scan_.torn_tail);
    ASSERT_EQ(scan_.records.size(), 1 + kTail);  // checkpoint + tail puts
    ASSERT_EQ(scan_.records[0].kind, WalRecordKind::kCheckpoint);
    std::string reframed = EncodeWalHeader(scan_.base_lsn);
    boundaries_.push_back(reframed.size());
    for (const WalRecord& record : scan_.records) {
      AppendWalRecord(&reframed, record.kind, record.flags, record.lsn,
                      record.payload);
      boundaries_.push_back(reframed.size());
    }
    std::string on_disk;
    bool found = false;
    ASSERT_TRUE(ReadFileToString(WalPath(base_dir_), &on_disk, &found).ok());
    ASSERT_TRUE(found);
    ASSERT_EQ(reframed, on_disk);
    log_bytes_ = std::move(on_disk);
  }

  void TearDown() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(base_dir_, ec);
    std::filesystem::remove_all(variant_dir_, ec);
  }

  bool ByRef() const { return GetParam() != StorageModelKind::kNsm; }

  /// Clones the crash image with `wal_bytes` as its log (empty string =
  /// delete the log).
  void MakeVariant(std::string_view wal_bytes) {
    std::filesystem::remove_all(variant_dir_);
    std::filesystem::copy(base_dir_, variant_dir_,
                          std::filesystem::copy_options::recursive);
    if (wal_bytes.empty()) {
      std::filesystem::remove(WalPath(variant_dir_));
    } else {
      WriteRawFile(WalPath(variant_dir_), wal_bytes);
    }
  }

  /// Reopens the variant and asserts it holds exactly the first `expected`
  /// objects, each byte-equal; then closes and asserts fsck is spotless.
  void VerifyVariant(size_t expected, size_t expected_replayed,
                     const std::string& label) {
    StoreOptions options;
    options.model = GetParam();
    options.backend = VolumeKind::kMmap;
    options.path = variant_dir_;
    {
      auto store_or = ComplexObjectStore::Open(db_->schema(), options);
      ASSERT_TRUE(store_or.ok())
          << label << ": " << store_or.status().ToString();
      auto store = std::move(store_or).value();
      EXPECT_EQ(store->replayed_wal_records(), expected_replayed) << label;
      EXPECT_EQ(store->model()->object_count(), expected) << label;
      for (size_t i = 0; i < expected; ++i) {
        const auto& object = db_->objects()[i];
        auto got = ByRef() ? store->Get(object.ref)
                           : store->GetByKey(object.key,
                                             Projection::All(*db_->schema()));
        ASSERT_TRUE(got.ok()) << label << " object " << i << ": "
                              << got.status().ToString();
        EXPECT_EQ(got.value(), object.tuple) << label << " object " << i;
      }
      for (size_t i = expected; i < db_->objects().size(); ++i) {
        EXPECT_FALSE(store->GetByKey(db_->objects()[i].key,
                                     Projection::All(*db_->schema()))
                         .ok())
            << label << ": dropped object " << i << " resurfaced";
      }
    }  // close checkpoints the recovered state
    auto report_or = RunFsck(variant_dir_);
    ASSERT_TRUE(report_or.ok()) << label;
    EXPECT_TRUE(report_or.value().clean())
        << label << "\n" << report_or.value().ToString();
    EXPECT_TRUE(report_or.value().warnings.empty())
        << label << "\n" << report_or.value().ToString();
  }

  std::string base_dir_;
  std::string variant_dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
  std::unique_ptr<ComplexObjectStore> store_;  ///< the still-open "victim"
  WalScan scan_;
  std::string log_bytes_;
  /// boundaries_[i] = valid bytes after exactly i records.
  std::vector<size_t> boundaries_;
};

// Chop the log at every record boundary AND mid-record past each boundary:
// replay must deliver the committed checkpoint plus exactly the put
// records that survived whole. (Record 0 is the checkpoint record, so a
// prefix of r records carries r-1 tail puts.)
TEST_P(WalReplayTest, TruncationAtEveryBoundaryReplaysTheValidPrefix) {
  for (size_t r = 0; r < boundaries_.size(); ++r) {
    const size_t puts = r == 0 ? 0 : r - 1;
    {
      MakeVariant(std::string_view(log_bytes_).substr(0, boundaries_[r]));
      VerifyVariant(kCommitted + puts, puts,
                    "boundary " + std::to_string(r));
    }
    if (r + 1 < boundaries_.size()) {
      // Mid-record: half of record r+1's frame survives — a torn append.
      const size_t torn =
          boundaries_[r] + (boundaries_[r + 1] - boundaries_[r]) / 2;
      MakeVariant(std::string_view(log_bytes_).substr(0, torn));
      VerifyVariant(kCommitted + puts, puts,
                    "mid-record after " + std::to_string(r));
    }
  }
}

// Flip one bit inside every record: the damaged record and everything
// after it vanish from replay, everything before it survives.
TEST_P(WalReplayTest, BitFlipInEveryRecordDropsItAndItsTail) {
  for (size_t r = 0; r + 1 < boundaries_.size(); ++r) {
    const size_t flip_at =
        boundaries_[r] + (boundaries_[r + 1] - boundaries_[r]) / 2;
    std::string bad = log_bytes_;
    bad[flip_at] ^= 0x01;
    MakeVariant(bad);
    const size_t puts = r == 0 ? 0 : r - 1;
    VerifyVariant(kCommitted + puts, puts, "flip record " + std::to_string(r));
  }
}

// An unusable log must not take the store down with it: recovery falls
// back to the pre-WAL paranoid scrub and reopens the committed state.
TEST_P(WalReplayTest, InvalidHeaderFallsBackToCommittedState) {
  std::string bad = log_bytes_;
  bad[0] ^= 0xff;  // magic
  MakeVariant(bad);
  VerifyVariant(kCommitted, 0, "invalid header");
}

// A missing log is also the operator's escape hatch: moving wal.log aside
// before the open makes the store ignore even a pristine log tail and
// reopen to exactly the committed checkpoint.
TEST_P(WalReplayTest, MissingLogFallsBackToCommittedState) {
  MakeVariant(std::string_view());
  VerifyVariant(kCommitted, 0, "missing log");
}

INSTANTIATE_TEST_SUITE_P(AllModels, WalReplayTest,
                         ::testing::ValuesIn(AllStorageModelKinds()),
                         [](const ::testing::TestParamInfo<StorageModelKind>&
                                info) {
                           std::string name = ToString(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace starfish
