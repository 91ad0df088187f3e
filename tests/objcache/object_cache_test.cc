// Unit tests of the raw ObjectCache (LRU, capacity, epochs)
// plus store-level correctness of the cached read paths: every cached
// answer must be byte-equal to what the uncached store returns, across all
// models, projections and write ops.

#include "objcache/object_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"

namespace starfish {
namespace {

Tuple SmallTuple(int32_t v) {
  return Tuple({Value::Int32(v), Value::Str("payload-" + std::to_string(v))});
}

ObjCacheOptions TinyOptions(size_t capacity = 1 << 20, uint32_t shards = 1) {
  ObjCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = capacity;
  options.shard_count = shards;
  return options;
}

TEST(ObjectCacheTest, MissThenInsertThenHit) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = ~0ull;
  EXPECT_EQ(cache.Lookup(7, &epoch), nullptr);
  cache.Insert(7, SmallTuple(7), epoch);
  ObjCacheEntryRef entry = cache.Lookup(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->object, SmallTuple(7));
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.bytes, cache.TotalBytes());
}

TEST(ObjectCacheTest, CapacityEvictsLruFirst) {
  // Measure one entry's charge (the tuples below all have the same shape),
  // then size a single shard to hold exactly three.
  size_t charge = 0;
  {
    ObjectCache probe(TinyOptions());
    uint64_t epoch = 0;
    probe.Lookup(0, &epoch);
    probe.Insert(0, SmallTuple(0), epoch);
    charge = probe.stats().bytes;
    ASSERT_GT(charge, 0u);
  }
  ObjectCache cache(TinyOptions(3 * charge, 1));
  for (ObjectRef ref = 0; ref < 3; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    cache.Insert(ref, SmallTuple(static_cast<int32_t>(ref)), epoch);
  }
  ASSERT_EQ(cache.stats().entries, 3u);
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(0), nullptr);
  uint64_t epoch = 0;
  cache.Lookup(99, &epoch);
  cache.Insert(99, SmallTuple(99), epoch);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_NE(cache.Lookup(0), nullptr) << "recently touched entry evicted";
  EXPECT_EQ(cache.Lookup(1), nullptr) << "LRU entry survived";
  EXPECT_NE(cache.Lookup(99), nullptr);
}

TEST(ObjectCacheTest, OversizeEntryIsNotCached) {
  ObjectCache cache(TinyOptions(64, 1));  // smaller than any entry charge
  uint64_t epoch = 0;
  cache.Lookup(1, &epoch);
  cache.Insert(1, SmallTuple(1), epoch);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ObjectCacheTest, InvalidateRefDropsEntryAndBlocksStaleInsert) {
  ObjectCache cache(TinyOptions(1 << 20, 4));
  uint64_t epoch = 0;
  cache.Lookup(5, &epoch);  // miss: sample the pre-assembly epoch
  // A write races the assembly and invalidates before the insert.
  cache.InvalidateRef(5);
  cache.Insert(5, SmallTuple(5), epoch);
  EXPECT_EQ(cache.Lookup(5), nullptr) << "stale assembly was published";
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.stats().inserts, 0u);

  // The non-racing sequence publishes fine...
  for (ObjectRef ref = 0; ref < 8; ++ref) {
    uint64_t fresh_epoch = 0;
    cache.Lookup(ref, &fresh_epoch);
    cache.Insert(ref, SmallTuple(static_cast<int32_t>(ref)), fresh_epoch);
  }
  ASSERT_EQ(cache.stats().entries, 8u);
  // ...and a later invalidation drops exactly the named entry.
  cache.InvalidateRef(5);
  for (ObjectRef ref = 0; ref < 8; ++ref) {
    EXPECT_EQ(cache.Lookup(ref) == nullptr, ref == 5) << "ref " << ref;
  }
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // The epoch is cache-wide: any invalidation refuses every insert that
  // sampled the epoch before it, whatever the inserted ref's shard.
  std::vector<uint64_t> epochs(8);
  for (ObjectRef ref = 100; ref < 108; ++ref) {
    cache.Lookup(ref, &epochs[ref - 100]);
  }
  cache.InvalidateRef(3);
  for (ObjectRef ref = 100; ref < 108; ++ref) {
    cache.Insert(ref, SmallTuple(static_cast<int32_t>(ref)),
                 epochs[ref - 100]);
    EXPECT_EQ(cache.Lookup(ref), nullptr) << "ref " << ref;
  }
  EXPECT_EQ(cache.stats().stale_drops, 9u);
}

TEST(ObjectCacheTest, ClearDropsEverythingAndKeepsGaugesConsistent) {
  ObjectCache cache(TinyOptions(1 << 20, 4));
  for (ObjectRef ref = 0; ref < 16; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    cache.Insert(ref, SmallTuple(static_cast<int32_t>(ref)), epoch);
  }
  ASSERT_EQ(cache.stats().entries, 16u);
  cache.Clear();
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidations, 16u);
  for (ObjectRef ref = 0; ref < 16; ++ref) {
    EXPECT_EQ(cache.Lookup(ref), nullptr);
  }
}

TEST(ObjectCacheTest, PinnedEntrySurvivesInvalidation) {
  // The PageGuard analogy: invalidation unshares, it does not destroy.
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(3, &epoch);
  cache.Insert(3, SmallTuple(3), epoch);
  ObjCacheEntryRef pinned = cache.Lookup(3);
  ASSERT_NE(pinned, nullptr);
  cache.InvalidateRef(3);
  EXPECT_EQ(cache.Lookup(3), nullptr);
  EXPECT_EQ(pinned->object, SmallTuple(3)) << "pinned entry mutated";
}

TEST(ObjectCacheTest, ResetStatsKeepsGauges) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(1, &epoch);
  cache.Insert(1, SmallTuple(1), epoch);
  const uint64_t resident = cache.stats().bytes;
  cache.ResetStats();
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(stats.bytes, resident) << "reset destroyed the resident gauge";
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ObjectCacheTest, NegativeMissInsertHit) {
  ObjectCache cache(TinyOptions());
  EXPECT_FALSE(cache.LookupNegative(7));
  uint64_t epoch = ~0ull;
  EXPECT_EQ(cache.Lookup(7, &epoch), nullptr);
  cache.InsertNegative(7, epoch);
  EXPECT_TRUE(cache.LookupNegative(7));
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.negative_inserts, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
}

TEST(ObjectCacheTest, NegativeInsertBlockedByEpochMove) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(7, &epoch);
  // A write (any write) runs between the probe and the verdict: the
  // NotFound may already be wrong.
  cache.InvalidateRef(7);
  cache.InsertNegative(7, epoch);
  EXPECT_FALSE(cache.LookupNegative(7));
  EXPECT_EQ(cache.stats().negative_inserts, 0u);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(ObjectCacheTest, NegativeVoidedByAnyWrite) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(7, &epoch);
  cache.InsertNegative(7, epoch);
  ASSERT_TRUE(cache.LookupNegative(7));
  // Every store write invalidates its target ref, which bumps the
  // cache-wide epoch, so the verdict dies even though ref 7 was never
  // touched.
  cache.InvalidateRef(55);
  EXPECT_FALSE(cache.LookupNegative(7));
  EXPECT_EQ(cache.stats().negative_entries, 0u) << "stale entry not reaped";
}

TEST(ObjectCacheTest, NegativeErasedByInvalidateRef) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(9, &epoch);
  cache.InsertNegative(9, epoch);
  cache.InvalidateRef(9);  // the object was just Put
  EXPECT_FALSE(cache.LookupNegative(9));
  EXPECT_EQ(cache.stats().negative_entries, 0u);
}

TEST(ObjectCacheTest, NegativeTableIsBounded) {
  ObjCacheOptions options = TinyOptions();
  options.negative_capacity = 4;
  ObjectCache cache(options);
  for (ObjectRef ref = 0; ref < 16; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    cache.InsertNegative(ref, epoch);
  }
  EXPECT_LE(cache.stats().negative_entries, 4u);
  EXPECT_TRUE(cache.LookupNegative(15)) << "most recent verdict evicted";
  EXPECT_FALSE(cache.LookupNegative(0)) << "oldest verdict survived the bound";
}

TEST(ObjectCacheTest, NegativeCachingDisabledByZeroCapacity) {
  ObjCacheOptions options = TinyOptions();
  options.negative_capacity = 0;
  ObjectCache cache(options);
  uint64_t epoch = 0;
  cache.Lookup(3, &epoch);
  cache.InsertNegative(3, epoch);
  EXPECT_FALSE(cache.LookupNegative(3));
  EXPECT_EQ(cache.stats().negative_inserts, 0u);
}

TEST(ObjectCacheTest, DeepSizeOfGrowsWithContent) {
  const size_t flat = DeepSizeOf(SmallTuple(1));
  Tuple nested({Value::Int32(1),
                Value::Relation({SmallTuple(2), SmallTuple(3)}),
                Value::Str(std::string(256, 'x'))});
  EXPECT_GT(DeepSizeOf(nested), flat);
  EXPECT_GE(DeepSizeOf(nested), 256u);  // the long string is charged
}

// ----------------------------------------------------------------- store --

class ObjCacheStoreTest : public ::testing::TestWithParam<StorageModelKind> {
 protected:
  void SetUp() override {
    bench::GeneratorConfig config;
    config.n_objects = 24;
    config.seed = 43;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());

    cached_ = OpenStore(/*enabled=*/true);
    plain_ = OpenStore(/*enabled=*/false);
  }

  std::unique_ptr<ComplexObjectStore> OpenStore(bool enabled) {
    StoreOptions options;
    options.model = GetParam();
    options.objcache.enabled = enabled;
    options.objcache.capacity_bytes = 8 << 20;
    auto store = ComplexObjectStore::Open(db_->schema(), options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto owned = std::move(store).value();
    for (const auto& object : db_->objects()) {
      EXPECT_TRUE(owned->Put(object.ref, object.tuple).ok());
    }
    return owned;
  }

  bool ByRef() const { return GetParam() != StorageModelKind::kNsm; }

  /// Models whose unique key->ref map lets GetByKey use the cache; the
  /// direct models never check key uniqueness and stay uncached by key.
  bool CachesByKey() const {
    return GetParam() == StorageModelKind::kDasdbsNsm ||
           GetParam() == StorageModelKind::kNsmIndexed;
  }

  static int64_t KeyOf(const Tuple& object) {
    return object.values[0].as_int32();
  }

  void CacheEveryObject() {
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(cached_->Get(object.ref).ok());
    }
  }

  /// After a write to `written`, every other object must still be a cache
  /// hit that fixes no page — a write invalidates its own ref only, even
  /// when its neighbours share the pages it dirtied.
  void ExpectNeighboursStillHit(ObjectRef written) {
    cached_->ResetStats();
    uint64_t neighbours = 0;
    for (const auto& object : db_->objects()) {
      if (object.ref == written) continue;
      auto got = cached_->Get(object.ref);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), object.tuple) << "ref " << object.ref;
      ++neighbours;
    }
    EXPECT_EQ(cached_->stats().buffer.fixes, 0u)
        << "a write to ref " << written << " dropped a neighbour's entry";
    EXPECT_EQ(cached_->objcache_stats().hits, neighbours);
  }

  std::unique_ptr<bench::BenchmarkDatabase> db_;
  std::unique_ptr<ComplexObjectStore> cached_;
  std::unique_ptr<ComplexObjectStore> plain_;
};

TEST_P(ObjCacheStoreTest, SecondGetIsAHitAndByteEqual) {
  if (!ByRef()) {
    // Plain NSM has no by-ref access: the tier stays off even when asked.
    EXPECT_EQ(cached_->object_cache(), nullptr);
    return;
  }
  ASSERT_NE(cached_->object_cache(), nullptr);
  for (const auto& object : db_->objects()) {
    auto first = cached_->Get(object.ref);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), object.tuple);
  }
  const ObjCacheStats cold = cached_->objcache_stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, db_->objects().size());
  EXPECT_EQ(cold.entries, db_->objects().size());
  for (const auto& object : db_->objects()) {
    auto again = cached_->Get(object.ref);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), object.tuple);
  }
  const ObjCacheStats warm = cached_->objcache_stats();
  EXPECT_EQ(warm.hits, db_->objects().size());
  EXPECT_GT(warm.HitRatio(), 0.0);
}

TEST_P(ObjCacheStoreTest, HitsCauseNoPageFixes) {
  if (!ByRef()) GTEST_SKIP();
  (void)cached_->Get(3);  // populate
  cached_->ResetStats();
  auto got = cached_->Get(3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(cached_->stats().buffer.fixes, 0u)
      << "a cache hit touched the page pool";
  EXPECT_EQ(cached_->objcache_stats().hits, 1u);

  // Query 1b. The cold by-key read costs exactly the uncached store's
  // full-object value scan; the warm one is free where the model maps keys
  // to refs uniquely, and unchanged (uncached) on the direct models.
  const Projection all = Projection::All(*db_->schema());
  const int64_t key = KeyOf(db_->objects()[8].tuple);
  plain_->ResetStats();
  ASSERT_TRUE(plain_->GetByKey(key, all).ok());
  const uint64_t uncached_fixes = plain_->stats().buffer.fixes;
  ASSERT_GT(uncached_fixes, 0u);
  cached_->ResetStats();
  ASSERT_TRUE(cached_->GetByKey(key, all).ok());
  EXPECT_EQ(cached_->stats().buffer.fixes, uncached_fixes)
      << "a by-key miss read differently from the uncached store";
  cached_->ResetStats();
  auto by_key = cached_->GetByKey(key, all);
  ASSERT_TRUE(by_key.ok());
  EXPECT_EQ(by_key.value(), db_->objects()[8].tuple);
  if (CachesByKey()) {
    EXPECT_EQ(cached_->stats().buffer.fixes, 0u)
        << "a warm GetByKey touched the page pool";
    EXPECT_EQ(cached_->objcache_stats().hits, 1u);
  } else {
    EXPECT_EQ(cached_->stats().buffer.fixes, uncached_fixes);
    EXPECT_EQ(cached_->objcache_stats().hits, 0u);
  }
}

TEST_P(ObjCacheStoreTest, ProjectedGetsMatchUncachedStore) {
  if (!ByRef()) GTEST_SKIP();
  const Schema& schema = *db_->schema();
  std::vector<Projection> projections = {Projection::All(schema),
                                         Projection::RootOnly(schema)};
  // Every ancestor-closed single-branch subset.
  for (PathId p = 0; p < schema.path_count(); ++p) {
    std::vector<PathId> paths;
    PathId cur = p;
    for (;;) {
      paths.push_back(cur);
      if (cur == kRootPath) break;
      cur = schema.path(cur).parent;
    }
    auto proj = Projection::OfPaths(schema, paths);
    ASSERT_TRUE(proj.ok());
    projections.push_back(proj.value());
  }
  for (const auto& object : db_->objects()) {
    for (const Projection& proj : projections) {
      auto from_plain = plain_->Get(object.ref, proj);
      // Twice through the cached store: the first call may assemble (miss),
      // the second must serve the projection from the cached entry.
      auto from_miss = cached_->Get(object.ref, proj);
      auto from_hit = cached_->Get(object.ref, proj);
      ASSERT_TRUE(from_plain.ok());
      ASSERT_TRUE(from_miss.ok());
      ASSERT_TRUE(from_hit.ok());
      EXPECT_EQ(from_miss.value(), from_plain.value())
          << "miss path diverged, projection " << proj.ToString();
      EXPECT_EQ(from_hit.value(), from_plain.value())
          << "hit path diverged, projection " << proj.ToString();
    }
  }
  // The same projections by key, each from an empty cache: the first read
  // is a by-key miss that assembles the full object, the second a hit.
  for (const auto& object : db_->objects()) {
    const int64_t key = KeyOf(object.tuple);
    for (const Projection& proj : projections) {
      cached_->InvalidateObjectCache();
      auto from_plain = plain_->GetByKey(key, proj);
      auto from_miss = cached_->GetByKey(key, proj);
      auto from_hit = cached_->GetByKey(key, proj);
      ASSERT_TRUE(from_plain.ok());
      ASSERT_TRUE(from_miss.ok());
      ASSERT_TRUE(from_hit.ok());
      EXPECT_EQ(from_miss.value(), from_plain.value())
          << "by-key miss diverged, projection " << proj.ToString();
      EXPECT_EQ(from_hit.value(), from_plain.value())
          << "by-key hit diverged, projection " << proj.ToString();
    }
  }
  // Two objects under one key, both cached by ref: the direct models
  // accept the second Put (they never check key uniqueness) and GetByKey
  // answers whichever object their scan settles on — the cache must not
  // change which. The normalized models refuse the Put in both stores.
  Tuple twin = db_->objects()[0].tuple;
  twin.values[1] = Value::Int32(777777);
  const ObjectRef twin_ref = 9100;
  const Status plain_put = plain_->Put(twin_ref, twin);
  const Status cached_put = cached_->Put(twin_ref, twin);
  EXPECT_EQ(cached_put.ToString(), plain_put.ToString());
  if (GetParam() == StorageModelKind::kDsm) {
    ASSERT_TRUE(plain_put.ok()) << plain_put.ToString();
  }
  ASSERT_TRUE(cached_->Get(0).ok());
  if (cached_put.ok()) {
    ASSERT_TRUE(cached_->Get(twin_ref).ok());
  }
  for (const Projection& proj : projections) {
    auto from_plain = plain_->GetByKey(KeyOf(twin), proj);
    auto from_cached = cached_->GetByKey(KeyOf(twin), proj);
    auto again = cached_->GetByKey(KeyOf(twin), proj);
    ASSERT_TRUE(from_plain.ok());
    ASSERT_TRUE(from_cached.ok());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(from_cached.value(), from_plain.value())
        << "duplicate-key answer diverged, projection " << proj.ToString();
    EXPECT_EQ(again.value(), from_plain.value())
        << "duplicate-key answer diverged, projection " << proj.ToString();
  }
}

TEST_P(ObjCacheStoreTest, ChildrenAndRootRecordMatchUncachedStore) {
  if (!ByRef()) GTEST_SKIP();
  for (const auto& object : db_->objects()) {
    (void)cached_->Get(object.ref);  // make the next reads cache hits
    auto cached_children = cached_->Children(object.ref);
    auto plain_children = plain_->Children(object.ref);
    ASSERT_TRUE(cached_children.ok());
    ASSERT_TRUE(plain_children.ok());
    EXPECT_EQ(cached_children.value(), plain_children.value());
    auto cached_root = cached_->RootRecord(object.ref);
    auto plain_root = plain_->RootRecord(object.ref);
    ASSERT_TRUE(cached_root.ok());
    ASSERT_TRUE(plain_root.ok());
    EXPECT_EQ(cached_root.value(), plain_root.value());
  }
}

TEST_P(ObjCacheStoreTest, NavigationMissesDoNotPopulate) {
  if (!ByRef()) GTEST_SKIP();
  (void)cached_->Children(2);
  (void)cached_->RootRecord(2);
  EXPECT_EQ(cached_->objcache_stats().entries, 0u)
      << "a navigation miss assembled a whole object";
}

TEST_P(ObjCacheStoreTest, ReplaceInvalidatesBeforeAck) {
  if (!ByRef()) GTEST_SKIP();
  CacheEveryObject();
  Tuple replacement = db_->objects()[5].tuple;
  replacement.values[1] = Value::Int32(424242);
  ASSERT_TRUE(cached_->Replace(5, replacement).ok());
  EXPECT_EQ(cached_->objcache_stats().invalidations, 1u);
  ExpectNeighboursStillHit(5);
  auto after = cached_->Get(5);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), replacement) << "stale assembly served after write";
  if (CachesByKey()) {
    auto by_key = cached_->GetByKey(KeyOf(replacement),
                                    Projection::All(*db_->schema()));
    ASSERT_TRUE(by_key.ok());
    EXPECT_EQ(by_key.value(), replacement) << "stale by-key answer";
  }
}

TEST_P(ObjCacheStoreTest, UpdateRootRecordInvalidates) {
  if (!ByRef()) GTEST_SKIP();
  CacheEveryObject();
  auto root = cached_->RootRecord(4);
  ASSERT_TRUE(root.ok());
  Tuple updated = root.value();
  updated.values[1] = Value::Int32(999);
  ASSERT_TRUE(cached_->UpdateRootRecord(4, updated).ok());
  ExpectNeighboursStillHit(4);
  auto after = cached_->RootRecord(4);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->values[1].as_int32(), 999);
  auto full = cached_->Get(4);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->values[1].as_int32(), 999);
}

TEST_P(ObjCacheStoreTest, RemoveInvalidates) {
  if (!ByRef()) GTEST_SKIP();
  CacheEveryObject();
  ASSERT_TRUE(cached_->Remove(6).ok());
  ExpectNeighboursStillHit(6);
  EXPECT_TRUE(cached_->Get(6).status().IsNotFound())
      << "cache resurrected a removed object";
  const int64_t key = KeyOf(db_->objects()[6].tuple);
  const Projection all = Projection::All(*db_->schema());
  ASSERT_TRUE(plain_->Remove(6).ok());
  EXPECT_EQ(cached_->GetByKey(key, all).status().ToString(),
            plain_->GetByKey(key, all).status().ToString())
      << "cache answered a removed key";
}

TEST_P(ObjCacheStoreTest, RepeatedMissingGetIsNegativelyCachedAndByteEqual) {
  if (!ByRef()) GTEST_SKIP();
  const ObjectRef absent = 9000;  // far outside the generated refs
  auto from_plain = plain_->Get(absent);
  auto first = cached_->Get(absent);   // model probe, verdict recorded
  auto second = cached_->Get(absent);  // served by the negative table
  ASSERT_FALSE(from_plain.ok());
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(first.status().IsNotFound());
  EXPECT_TRUE(second.status().IsNotFound());
  // The cache-served answer is indistinguishable from the model's.
  EXPECT_EQ(first.status().ToString(), from_plain.status().ToString());
  EXPECT_EQ(second.status().ToString(), from_plain.status().ToString());
  EXPECT_EQ(cached_->objcache_stats().negative_hits, 1u);
}

TEST_P(ObjCacheStoreTest, NegativeHitCausesNoPageFixes) {
  if (!ByRef()) GTEST_SKIP();
  const ObjectRef absent = 9001;
  ASSERT_TRUE(cached_->Get(absent).status().IsNotFound());  // record verdict
  cached_->ResetStats();
  ASSERT_TRUE(cached_->Get(absent).status().IsNotFound());
  EXPECT_EQ(cached_->stats().buffer.fixes, 0u)
      << "a negative hit touched the page pool";
  EXPECT_EQ(cached_->objcache_stats().negative_hits, 1u);
}

TEST_P(ObjCacheStoreTest, PutAfterNegativeProbeIsVisible) {
  if (!ByRef()) GTEST_SKIP();
  const ObjectRef fresh = 9002;
  // Probe twice so the second answer provably came from the side table.
  ASSERT_TRUE(cached_->Get(fresh).status().IsNotFound());
  ASSERT_TRUE(cached_->Get(fresh).status().IsNotFound());
  Tuple tuple = db_->objects()[0].tuple;
  tuple.values[0] = Value::Int32(9002 + 1);  // fresh unique key
  auto put = cached_->Put(fresh, tuple);
  ASSERT_TRUE(put.ok()) << put.ToString();
  auto after = cached_->Get(fresh);
  ASSERT_TRUE(after.ok()) << "negative verdict outlived the Put";
  EXPECT_EQ(after.value(), tuple);
}

TEST_P(ObjCacheStoreTest, DisabledStoreHasNoCache) {
  EXPECT_EQ(plain_->object_cache(), nullptr);
  const ObjCacheStats stats = plain_->objcache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ObjCacheStoreTest,
    ::testing::ValuesIn(AllStorageModelKinds()),
    [](const ::testing::TestParamInfo<StorageModelKind>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

// Persistent stores: the WAL write path's invalidation and the
// cold-start-on-reopen contract over the mmap backend, for every model
// the cache serves.
TEST(ObjCachePersistentTest, WalWritePathInvalidatesAndReopenStartsCold) {
  bench::GeneratorConfig config;
  config.n_objects = 12;
  config.seed = 7;
  auto db = bench::BenchmarkDatabase::Generate(config);
  ASSERT_TRUE(db.ok());

  for (StorageModelKind kind :
       {StorageModelKind::kDsm, StorageModelKind::kDasdbsDsm,
        StorageModelKind::kNsmIndexed, StorageModelKind::kDasdbsNsm}) {
    SCOPED_TRACE(ToString(kind));
    const std::string dir =
        (std::filesystem::temp_directory_path() / "starfish_objcache_persist")
            .string();
    std::filesystem::remove_all(dir);
    StoreOptions options;
    options.model = kind;
    options.backend = VolumeKind::kMmap;
    options.path = dir;
    options.objcache.enabled = true;
    options.wal_sync = WalSyncPolicy::kAlways;
    {
      auto store_or = ComplexObjectStore::Open(db->schema(), options);
      ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
      auto store = std::move(store_or).value();
      for (const auto& object : db->objects()) {
        ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
      }
      for (const auto& object : db->objects()) {
        ASSERT_TRUE(store->Get(object.ref).ok());
      }
      ASSERT_EQ(store->objcache_stats().entries, db->objects().size());

      Tuple replacement = db->objects()[0].tuple;
      replacement.values[1] = Value::Int32(31337);
      ASSERT_TRUE(store->Replace(0, replacement).ok());
      // Exactly the replaced object's assembly is gone; its neighbours on
      // the pages the write dirtied stay hits that fix no page.
      EXPECT_EQ(store->objcache_stats().invalidations, 1u);
      store->ResetStats();
      for (const auto& object : db->objects()) {
        if (object.ref == 0) continue;
        auto got = store->Get(object.ref);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), object.tuple);
      }
      EXPECT_EQ(store->stats().buffer.fixes, 0u);
      EXPECT_EQ(store->objcache_stats().hits, db->objects().size() - 1);
      auto after = store->Get(0);
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(after.value(), replacement);
      ASSERT_TRUE(store->Flush().ok());
    }

    // Reopen: the cache must start empty (assemblies never persist).
    auto reopened_or = ComplexObjectStore::Open(db->schema(), options);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    auto reopened = std::move(reopened_or).value();
    ASSERT_NE(reopened->object_cache(), nullptr);
    const ObjCacheStats cold = reopened->objcache_stats();
    EXPECT_EQ(cold.entries, 0u);
    EXPECT_EQ(cold.hits + cold.misses, 0u);
    auto got = reopened->Get(3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), db->objects()[3].tuple);
    reopened.reset();
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace starfish
