// sf_fsck library behaviour over directories in known states: clean
// stores, crash artifacts (warnings), and real inconsistencies (errors).
// End-to-end crash coverage (every fault point -> recovery -> fsck clean)
// lives in tests/integration/crash_matrix_test.cc.

#include "tools/fsck.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/complex_object_store.h"
#include "core/generations.h"
#include "disk/volume_meta.h"
#include "nf2/schema.h"
#include "nf2/value.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace starfish {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_fsck_" +
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

  static std::shared_ptr<const Schema> ObjSchema() {
    auto item = SchemaBuilder("Item").AddInt32("N").AddString("S").Build();
    return SchemaBuilder("Obj")
        .AddInt32("Id")
        .AddString("Name")
        .AddRelation("Items", item)
        .Build();
  }

  StoreOptions MmapOptions() const {
    StoreOptions options;
    options.backend = VolumeKind::kMmap;
    options.path = dir_;
    return options;
  }

  /// A small committed store: 10 objects, one checkpoint.
  void BuildStore() {
    auto store = ComplexObjectStore::Open(ObjSchema(), MmapOptions()).value();
    for (int i = 0; i < 10; ++i) {
      Tuple obj{{Value::Int32(i), Value::Str("obj-" + std::to_string(i)),
                 Value::Relation({
                     Tuple{{Value::Int32(i), Value::Str("a")}},
                     Tuple{{Value::Int32(i + 100), Value::Str("b")}},
                 })}};
      ASSERT_TRUE(store->Put(i, obj).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }

  FsckReport Run() {
    auto report_or = RunFsck(dir_);
    EXPECT_TRUE(report_or.ok()) << report_or.status().ToString();
    return report_or.ok() ? report_or.value() : FsckReport{};
  }

  std::string dir_;
};

TEST_F(FsckTest, CleanStoreReportsZeroInconsistencies) {
  BuildStore();
  const FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_TRUE(report.warnings.empty()) << report.ToString();
  EXPECT_TRUE(report.volume_found);
  EXPECT_TRUE(report.catalog_found);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_GT(report.segment_count, 0u);
  EXPECT_GT(report.referenced_pages, 0u);
  EXPECT_EQ(report.orphan_pages, 0u);
  EXPECT_EQ(report.referenced_pages, report.live_pages);
}

TEST_F(FsckTest, EmptyDirectoryIsCleanAndBareVolumeIsClean) {
  std::filesystem::create_directories(dir_);
  FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_FALSE(report.volume_found);
  EXPECT_FALSE(report.catalog_found);
  // Not a directory at all -> hard error, not a report.
  EXPECT_FALSE(RunFsck(dir_ + "_nonexistent").ok());
}

TEST_F(FsckTest, UncommittedGenerationAndOrphanExtentAreWarnings) {
  BuildStore();
  // Crash artifacts: a generation newer than CURRENT and an extent file
  // beyond the durable page count.
  {
    std::FILE* f =
        std::fopen(CatalogGenerationPath(dir_, 9).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("uncommitted", f);
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen((dir_ + "/extent_000099").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("stale", f);
    std::fclose(f);
  }
  const FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();  // artifacts, not damage
  EXPECT_EQ(report.warnings.size(), 2u) << report.ToString();
}

TEST_F(FsckTest, CorruptCurrentIsAnError) {
  BuildStore();
  std::FILE* f = std::fopen(CurrentPath(dir_).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not-a-catalog-name\n", f);
  std::fclose(f);
  const FsckReport report = Run();
  EXPECT_FALSE(report.clean());
}

TEST_F(FsckTest, MissingVolumeMetaFailsTheCatalogChecks) {
  BuildStore();
  std::filesystem::remove(dir_ + "/volume.meta");
  const FsckReport report = Run();
  EXPECT_FALSE(report.volume_found);
  EXPECT_FALSE(report.clean()) << report.ToString();
}

TEST_F(FsckTest, TamperedPageHeaderIsAnError) {
  BuildStore();
  // Flip the segment-id field (byte 8) of page 0's header in place.
  std::FILE* f = std::fopen((dir_ + "/extent_000000").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);
  const int original = std::fgetc(f);
  std::fseek(f, 8, SEEK_SET);
  std::fputc(original ^ 0x7F, f);
  std::fclose(f);
  const FsckReport report = Run();
  EXPECT_FALSE(report.clean());
  bool mentions_header = false;
  for (const std::string& error : report.errors) {
    if (error.find("header") != std::string::npos) mentions_header = true;
  }
  EXPECT_TRUE(mentions_header) << report.ToString();
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// File name -> bytes of every file in `dir`.
std::map<std::string, std::string> SnapshotDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] =
        ReadBytes(entry.path().string());
  }
  return files;
}

/// The committed catalog payload of `dir` with the WAL checkpoint LSN cut
/// out: the payload layout the retired pre-WAL frames carried.
std::string PreWalPayload(const std::string& dir) {
  auto file = ReadCatalogFile(CatalogGenerationPath(dir, 1));
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  const std::string payload = file.ok() ? file.value().payload : "";
  std::string_view in(payload);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string_view name;
  // model kind, page size, key attr, schema name, path count.
  EXPECT_TRUE(GetFixed32(&in, &u32) && GetFixed32(&in, &u32) &&
              GetFixed64(&in, &u64) && GetLengthPrefixed(&in, &name) &&
              GetFixed32(&in, &u32));
  const size_t lsn_at = payload.size() - in.size();
  return payload.substr(0, lsn_at) + payload.substr(lsn_at + 8);
}

// Directories in the retired on-disk formats — pre-generation catalog.sf
// without CURRENT, the pre-WAL v2 generation frame, the v1 volume.meta —
// are refused, never migrated or re-formatted: Open fails and leaves every
// byte as it was, and sf_fsck reports an error. Each image is a real
// committed store rewritten into the old format, so the payload itself
// would load.
TEST_F(FsckTest, RetiredFormatsFailClosed) {
  constexpr uint32_t kCatalogMagic = 0x54434653;  // "SFCT"
  constexpr uint32_t kMetaMagic = 0x4D564653;     // "SFVM"
  const std::vector<std::pair<std::string, std::function<void()>>> cases = {
      {"v1 catalog.sf without CURRENT",
       [&] {
         std::string frame;
         PutFixed32(&frame, kCatalogMagic);
         PutFixed32(&frame, 1);
         frame += PreWalPayload(dir_);
         WriteBytes(dir_ + "/catalog.sf", frame);
         std::filesystem::remove(CurrentPath(dir_));
         std::filesystem::remove(CatalogGenerationPath(dir_, 1));
         std::filesystem::remove(dir_ + "/wal.log");
       }},
      {"CURRENT naming a v2 frame",
       [&] {
         std::string frame;
         PutFixed32(&frame, kCatalogMagic);
         PutFixed32(&frame, 2);
         PutFixed64(&frame, 1);
         frame += PreWalPayload(dir_);
         PutFixed32(&frame, Crc32(frame));
         WriteBytes(CatalogGenerationPath(dir_, 1), frame);
         std::filesystem::remove(dir_ + "/wal.log");
       }},
      {"v1 volume.meta",
       [&] {
         VolumeMetaReplay replay;
         ASSERT_TRUE(ReplayVolumeMeta(dir_ + "/volume.meta", &replay).ok());
         std::string meta;
         PutFixed32(&meta, kMetaMagic);
         PutFixed32(&meta, 1);
         PutFixed32(&meta, replay.state.options.page_size);
         PutFixed32(&meta, replay.state.options.extent_bytes);
         PutFixed64(&meta, replay.state.page_count);
         std::string bitmap((replay.state.page_count + 7) / 8, '\0');
         for (uint64_t i = 0; i < replay.state.page_count; ++i) {
           if (replay.state.freed[i]) bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
         }
         WriteBytes(dir_ + "/volume.meta", meta + bitmap);
       }},
  };
  for (const auto& [name, rewrite] : cases) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(dir_);
    BuildStore();
    rewrite();
    const auto before = SnapshotDir(dir_);

    {
      auto store = ComplexObjectStore::Open(ObjSchema(), MmapOptions());
      EXPECT_FALSE(store.ok());
    }  // a store that did open is closed before the bytes are compared
    EXPECT_EQ(SnapshotDir(dir_), before);

    const FsckReport report = Run();
    EXPECT_FALSE(report.clean()) << report.ToString();
    EXPECT_EQ(SnapshotDir(dir_), before);
  }
  // The pre-generation catalog is refused as such, before any parsing.
  std::filesystem::remove_all(dir_);
  BuildStore();
  cases[0].second();
  EXPECT_TRUE(ComplexObjectStore::Open(ObjSchema(), MmapOptions())
                  .status()
                  .IsNotSupported());
}

TEST_F(FsckTest, GarbageJournalTailIsAWarningNotAnError) {
  BuildStore();
  // A torn append: garbage after the last valid record.
  std::FILE* f = std::fopen((dir_ + "/volume.meta").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn-append-gar", f);
  std::fclose(f);
  const FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_FALSE(report.warnings.empty()) << report.ToString();
}

}  // namespace
}  // namespace starfish
