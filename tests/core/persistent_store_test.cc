// The persistent open/reopen path of ComplexObjectStore over the mmap
// backend, for every storage model: a store written by one instance must be
// fully readable (and writable) by a later instance on the same path.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "benchmark/generator.h"
#include "benchmark/station_schema.h"
#include "core/complex_object_store.h"

namespace starfish {
namespace {

class PersistentStoreTest : public ::testing::TestWithParam<StorageModelKind> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_persist_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    for (char& c : dir_) {
      if (c == '/' && &c > dir_.data() + 4) continue;  // keep path separators
    }
    std::filesystem::remove_all(dir_);

    bench::GeneratorConfig config;
    config.n_objects = 25;
    config.seed = 83;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StoreOptions MmapOptions() {
    StoreOptions options;
    options.model = GetParam();
    options.backend = VolumeKind::kMmap;
    options.path = dir_;
    return options;
  }

  std::unique_ptr<ComplexObjectStore> OpenStore() {
    auto store = ComplexObjectStore::Open(db_->schema(), MmapOptions());
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  void LoadAll(ComplexObjectStore* store) {
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }

  bool ByRef() const { return GetParam() != StorageModelKind::kNsm; }

  std::string dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
};

// The mmap backend must pass the same storage-model behaviour the mem
// backend does — fresh store, no reopen involved.
TEST_P(PersistentStoreTest, MmapBackendServesAllQueries) {
  auto store = OpenStore();
  LoadAll(store.get());
  EXPECT_EQ(store->model()->object_count(), db_->objects().size());
  if (ByRef()) {
    auto got = store->Get(7);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), db_->objects()[7].tuple);
  }
  auto by_key = store->GetByKey(db_->objects()[4].key,
                                Projection::All(*db_->schema()));
  ASSERT_TRUE(by_key.ok());
  EXPECT_EQ(by_key.value(), db_->objects()[4].tuple);
  size_t count = 0;
  ASSERT_TRUE(store->Scan(Projection::All(*db_->schema()),
                          [&](int64_t, const Tuple&) {
                            ++count;
                            return Status::OK();
                          })
                  .ok());
  EXPECT_EQ(count, db_->objects().size());
}

TEST_P(PersistentStoreTest, WriteCloseReopenRestoresEveryObject) {
  {
    auto store = OpenStore();
    LoadAll(store.get());
  }  // destructor checkpoints catalog + syncs the volume

  auto store = OpenStore();  // second instance, same path
  EXPECT_EQ(store->model()->object_count(), db_->objects().size());
  for (const auto& object : db_->objects()) {
    auto got = ByRef()
                   ? store->Get(object.ref)
                   : store->GetByKey(object.key, Projection::All(*db_->schema()));
    ASSERT_TRUE(got.ok()) << "ref " << object.ref << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value(), object.tuple) << "ref " << object.ref;
  }
  // Navigation state survived too.
  if (ByRef()) {
    auto children = store->Children(3);
    ASSERT_TRUE(children.ok());
  }
}

TEST_P(PersistentStoreTest, ReopenedStoreAcceptsNewWrites) {
  {
    auto store = OpenStore();
    LoadAll(store.get());
  }
  {
    auto store = OpenStore();
    // Updating an existing object and inserting a new one must both work.
    auto root = store->RootRecord(ByRef() ? 9 : 9);
    if (ByRef()) {
      ASSERT_TRUE(root.ok());
      Tuple updated = root.value();
      updated.values[1] = Value::Int32(4242);
      ASSERT_TRUE(store->UpdateRootRecord(9, updated).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  if (ByRef()) {
    auto store = OpenStore();  // third instance sees the second's update
    auto root = store->RootRecord(9);
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->values[1].as_int32(), 4242);
  }
}

TEST_P(PersistentStoreTest, ReopenWithWrongModelRejected) {
  {
    auto store = OpenStore();
    LoadAll(store.get());
  }
  StoreOptions wrong = MmapOptions();
  wrong.model = GetParam() == StorageModelKind::kDsm ? StorageModelKind::kNsm
                                                     : StorageModelKind::kDsm;
  auto reopened = ComplexObjectStore::Open(db_->schema(), wrong);
  EXPECT_FALSE(reopened.ok());
}

TEST_P(PersistentStoreTest, ReopenAdoptsRecordedPageSize) {
  {
    StoreOptions options = MmapOptions();
    options.page_size = 1024;
    auto store = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store.ok());
    LoadAll(store->get());
  }
  // Reopen with the default 2048: the recorded 1024 must win.
  auto store = OpenStore();
  EXPECT_EQ(store->engine()->disk()->page_size(), 1024u);
  EXPECT_EQ(store->options().page_size, 1024u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, PersistentStoreTest,
    ::testing::ValuesIn(AllStorageModelKinds()),
    [](const ::testing::TestParamInfo<StorageModelKind>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

// --- non-parameterized store-level backend behaviour ----------------------

TEST(PersistentStoreOpenTest, MmapWithoutPathRejected) {
  StoreOptions options;
  options.backend = VolumeKind::kMmap;  // no path
  auto store = ComplexObjectStore::Open(bench::MakeStationSchema(), options);
  EXPECT_FALSE(store.ok());
}

}  // namespace
}  // namespace starfish
