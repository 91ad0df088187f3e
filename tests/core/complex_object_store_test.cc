#include "core/complex_object_store.h"

#include <gtest/gtest.h>

#include "benchmark/generator.h"
#include "benchmark/station_schema.h"

namespace starfish {
namespace {

class ComplexObjectStoreTest
    : public ::testing::TestWithParam<StorageModelKind> {
 protected:
  void SetUp() override {
    bench::GeneratorConfig config;
    config.n_objects = 30;
    config.seed = 61;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
    StoreOptions options;
    options.model = GetParam();
    // Non-default coefficients, so the timing assertions prove the store
    // prices with ITS model rather than the defaults.
    options.timing = LinearTimingModel{10.0, 2.0};
    auto store = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store_->Put(object.ref, object.tuple).ok());
    }
    ASSERT_TRUE(store_->Flush().ok());
  }

  std::unique_ptr<bench::BenchmarkDatabase> db_;
  std::unique_ptr<ComplexObjectStore> store_;
};

TEST_P(ComplexObjectStoreTest, PutGetRoundTrip) {
  if (GetParam() == StorageModelKind::kNsm) GTEST_SKIP();
  auto got = store_->Get(7);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), db_->objects()[7].tuple);
}

TEST_P(ComplexObjectStoreTest, GetByKeyWorksForAllModels) {
  auto got = store_->GetByKey(db_->objects()[4].key,
                              Projection::All(*db_->schema()));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), db_->objects()[4].tuple);
}

TEST_P(ComplexObjectStoreTest, ScanSeesEverything) {
  size_t count = 0;
  ASSERT_TRUE(store_->Scan(Projection::All(*db_->schema()),
                           [&](int64_t, const Tuple&) {
                             ++count;
                             return Status::OK();
                           }).ok());
  EXPECT_EQ(count, db_->objects().size());
}

TEST_P(ComplexObjectStoreTest, ChildrenAndRootRecord) {
  auto children = store_->Children(3);
  ASSERT_TRUE(children.ok());
  auto root = store_->RootRecord(3);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->values[0].as_int32(),
            static_cast<int32_t>(db_->objects()[3].key));
}

TEST_P(ComplexObjectStoreTest, UpdateRootRecord) {
  auto root = store_->RootRecord(9);
  ASSERT_TRUE(root.ok());
  Tuple updated = root.value();
  updated.values[1] = Value::Int32(777);
  ASSERT_TRUE(store_->UpdateRootRecord(9, updated).ok());
  auto after = store_->RootRecord(9);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->values[1].as_int32(), 777);
}

TEST_P(ComplexObjectStoreTest, StatsAndTimingAccumulate) {
  store_->ResetStats();
  EXPECT_DOUBLE_EQ(store_->EstimatedIoMillis(), 0.0);
  ASSERT_TRUE(store_->engine()->DropCache().ok());
  store_->ResetStats();
  (void)store_->GetByKey(db_->objects()[2].key, Projection::All(*db_->schema()));
  EXPECT_GT(store_->stats().io.pages_read, 0u);
  EXPECT_GT(store_->stats().buffer.fixes, 0u);
  EXPECT_GT(store_->EstimatedIoMillis(), 0.0);
  // Modelled time is exactly Equation 1 over the counters: d1 per call
  // plus d2 per page, with the configured coefficients.
  const IoStats io = store_->stats().io;
  EXPECT_DOUBLE_EQ(store_->EstimatedIoMillis(),
                   store_->options().timing.Cost(io));
  EXPECT_DOUBLE_EQ(store_->EstimatedIoMillis(),
                   10.0 * static_cast<double>(io.TotalCalls()) +
                       2.0 * static_cast<double>(io.TotalPages()));
  store_->ResetStats();
  EXPECT_EQ(store_->EstimatedIoMillis(), 0.0);
}

TEST_P(ComplexObjectStoreTest, OptionsArePlumbedThrough) {
  StoreOptions options;
  options.model = GetParam();
  options.page_size = 1024;
  options.buffer_frames = 64;
  auto store = ComplexObjectStore::Open(bench::MakeStationSchema(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->engine()->disk()->page_size(), 1024u);
  EXPECT_EQ((*store)->engine()->buffer()->frame_count(), 64u);
  EXPECT_EQ((*store)->model()->kind(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ComplexObjectStoreTest,
    ::testing::ValuesIn(AllStorageModelKinds()),
    [](const ::testing::TestParamInfo<StorageModelKind>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(ComplexObjectStoreOpenTest, RejectsNullSchema) {
  EXPECT_TRUE(ComplexObjectStore::Open(nullptr).status().IsInvalidArgument());
}

TEST(ComplexObjectStoreOpenTest, CustomSchemaWorks) {
  // A non-benchmark schema: a document with sections and references.
  auto section = SchemaBuilder("Section")
                     .AddInt32("Nr")
                     .AddString("Text")
                     .AddLink("SeeAlso")
                     .Build();
  auto doc = SchemaBuilder("Document")
                 .AddInt32("DocId")
                 .AddString("Title")
                 .AddRelation("Sections", section)
                 .Build();
  StoreOptions options;
  options.model = StorageModelKind::kDasdbsNsm;
  auto store = ComplexObjectStore::Open(doc, options);
  ASSERT_TRUE(store.ok());
  Tuple d{{Value::Int32(1), Value::Str("paper"),
           Value::Relation({Tuple{{Value::Int32(0), Value::Str("intro"),
                                   Value::Link(2)}},
                            Tuple{{Value::Int32(1), Value::Str("eval"),
                                   Value::Link(0)}}})}};
  ASSERT_TRUE((*store)->Put(0, d).ok());
  auto got = (*store)->Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), d);
  auto children = (*store)->Children(0);
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(children.value(), (std::vector<ObjectRef>{2, 0}));
}

}  // namespace
}  // namespace starfish
