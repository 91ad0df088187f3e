#include "storage/storage_engine.h"

#include <gtest/gtest.h>

namespace starfish {
namespace {

TEST(StorageEngineTest, CreateAndLookupSegments) {
  StorageEngine engine;
  auto a = engine.CreateSegment("alpha");
  auto b = engine.CreateSegment("beta");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(engine.GetSegment("alpha"), a.value());
  EXPECT_EQ(engine.GetSegment("beta"), b.value());
  EXPECT_EQ(engine.GetSegment("gamma"), nullptr);
  EXPECT_EQ(engine.segments().size(), 2u);
  EXPECT_NE(a.value()->id(), b.value()->id());
}

TEST(StorageEngineTest, DuplicateSegmentNameRejected) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateSegment("dup").ok());
  EXPECT_TRUE(engine.CreateSegment("dup").status().IsAlreadyExists());
}

TEST(StorageEngineTest, StatsCombineDiskAndBuffer) {
  StorageEngine engine;
  auto seg = engine.CreateSegment("s");
  ASSERT_TRUE(seg.ok());
  auto page = seg.value()->AllocatePage(PageType::kSlotted);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.DropCache().ok());
  engine.ResetStats();
  { auto g = engine.buffer()->Fix(page.value()); ASSERT_TRUE(g.ok()); }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.buffer.fixes, 1u);
  EXPECT_EQ(stats.io.pages_read, 1u);
}

TEST(StorageEngineTest, DropCacheMakesNextAccessCold) {
  StorageEngine engine;
  auto seg = engine.CreateSegment("s");
  ASSERT_TRUE(seg.ok());
  auto page = seg.value()->AllocatePage(PageType::kSlotted);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(engine.DropCache().ok());
  engine.ResetStats();
  { auto g = engine.buffer()->Fix(page.value()); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(engine.stats().io.pages_read, 1u);
  engine.ResetStats();
  { auto g = engine.buffer()->Fix(page.value()); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(engine.stats().io.pages_read, 0u);  // warm now
}

TEST(StorageEngineTest, SegmentFreeHintsTrackInserts) {
  StorageEngine engine;
  auto seg_result = engine.CreateSegment("hints");
  ASSERT_TRUE(seg_result.ok());
  Segment* seg = seg_result.value();
  auto page = seg->AllocatePage(PageType::kSlotted);
  ASSERT_TRUE(page.ok());
  const uint32_t initial = seg->FreeHint(page.value());
  EXPECT_GT(initial, 1900u);
  seg->SetFreeHint(page.value(), 10);
  EXPECT_EQ(seg->FreeHint(page.value()), 10u);
  EXPECT_EQ(seg->FindSlottedPageWithSpace(11), kInvalidPageId);
  EXPECT_EQ(seg->FindSlottedPageWithSpace(10), page.value());
}

TEST(StorageEngineTest, FreePagesRemovesFromSegment) {
  StorageEngine engine;
  auto seg_result = engine.CreateSegment("free");
  ASSERT_TRUE(seg_result.ok());
  Segment* seg = seg_result.value();
  auto first = seg->AllocateRun(3, PageType::kComplexData);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(seg->pages().size(), 3u);
  ASSERT_TRUE(seg->FreePages({first.value() + 1}).ok());
  EXPECT_EQ(seg->pages().size(), 2u);
  EXPECT_TRUE(seg->FreePages({999}).IsNotFound());
}

TEST(StorageEngineTest, CustomGeometry) {
  StorageEngineOptions options;
  options.disk.page_size = 1024;
  options.buffer.frame_count = 8;
  StorageEngine engine(options);
  EXPECT_EQ(engine.disk()->page_size(), 1024u);
  EXPECT_EQ(engine.buffer()->frame_count(), 8u);
}

TEST(StorageEngineTest, DefaultBackendIsMemAndUntimed) {
  StorageEngine engine;
  EXPECT_TRUE(engine.init_status().ok());
  EXPECT_EQ(engine.disk()->kind(), VolumeKind::kMem);
}

TEST(StorageEngineTest, OpenPropagatesBackendFailure) {
  StorageEngineOptions options;
  options.backend = VolumeKind::kMmap;  // no path -> invalid
  auto engine = StorageEngine::Open(options);
  EXPECT_FALSE(engine.ok());
  // The constructor survives by falling back to the mem backend, but
  // records the failure.
  StorageEngine fallback(options);
  EXPECT_FALSE(fallback.init_status().ok());
  EXPECT_EQ(fallback.disk()->kind(), VolumeKind::kMem);
}

TEST(StorageEngineTest, OpenOrCreateSegmentReusesExisting) {
  StorageEngine engine;
  auto a = engine.OpenOrCreateSegment("seg");
  ASSERT_TRUE(a.ok());
  auto b = engine.OpenOrCreateSegment("seg");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(engine.segments().size(), 1u);
}

TEST(StorageEngineTest, SegmentCatalogRoundTrips) {
  StorageEngine engine;
  auto a = engine.CreateSegment("first");
  auto b = engine.CreateSegment("second");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->AllocateRun(3, PageType::kSlotted).ok());
  ASSERT_TRUE(b.value()->AllocatePage(PageType::kComplexHeader).ok());

  std::string catalog;
  engine.SaveCatalog(&catalog);

  StorageEngine restored;
  std::string_view in(catalog);
  ASSERT_TRUE(restored.LoadCatalog(&in).ok());
  EXPECT_TRUE(in.empty());  // fully consumed
  Segment* first = restored.GetSegment("first");
  Segment* second = restored.GetSegment("second");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->pages(), a.value()->pages());
  EXPECT_EQ(second->pages(), b.value()->pages());
  EXPECT_EQ(first->FreeHint(first->pages()[0]),
            a.value()->FreeHint(a.value()->pages()[0]));
  EXPECT_EQ(second->TypeHint(second->pages()[0]), PageType::kComplexHeader);
}

TEST(StorageEngineTest, TruncatedCatalogRejected) {
  StorageEngine engine;
  auto a = engine.CreateSegment("seg");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a.value()->AllocateRun(2, PageType::kSlotted).ok());
  std::string catalog;
  engine.SaveCatalog(&catalog);

  StorageEngine restored;
  std::string_view truncated(catalog.data(), catalog.size() / 2);
  EXPECT_TRUE(restored.LoadCatalog(&truncated).IsCorruption());
}

}  // namespace
}  // namespace starfish
