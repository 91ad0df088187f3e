#include "objcache/object_cache.h"

#include <algorithm>
#include <mutex>
#include <thread>

namespace starfish {

namespace {

/// Fixed per-entry bookkeeping charge: map node, LRU node, control block.
/// A round constant — the charge only needs to keep thousands of
/// tiny entries from looking free.
constexpr size_t kEntryOverhead = 96;

uint32_t PickShardCount(uint32_t requested) {
  uint32_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 8;
  }
  uint32_t pow2 = 1;
  while (pow2 < n && pow2 < 256) pow2 <<= 1;
  return pow2;
}

}  // namespace

std::string ObjCacheStats::ToString() const {
  char buf[352];
  snprintf(buf, sizeof(buf),
           "objcache: hits=%llu misses=%llu (ratio %.3f) inserts=%llu "
           "evictions=%llu invalidations=%llu stale_drops=%llu "
           "neg_hits=%llu neg_inserts=%llu entries=%llu bytes=%llu "
           "neg_entries=%llu",
           static_cast<unsigned long long>(hits),
           static_cast<unsigned long long>(misses), HitRatio(),
           static_cast<unsigned long long>(inserts),
           static_cast<unsigned long long>(evictions),
           static_cast<unsigned long long>(invalidations),
           static_cast<unsigned long long>(stale_drops),
           static_cast<unsigned long long>(negative_hits),
           static_cast<unsigned long long>(negative_inserts),
           static_cast<unsigned long long>(entries),
           static_cast<unsigned long long>(bytes),
           static_cast<unsigned long long>(negative_entries));
  return buf;
}

/// One independent slice of the cache. Everything here is guarded by `mu`;
/// shard locks are never nested (Clear visits shards one at a time).
struct ObjectCache::Shard {
  std::mutex mu;

  /// LRU order, front = coldest. Stores the keys; the map holds the
  /// iterator for O(1) touch/erase.
  std::list<ObjectRef> lru;

  struct Slot {
    ObjCacheEntryRef entry;
    std::list<ObjectRef>::iterator lru_it;
  };
  std::unordered_map<ObjectRef, Slot> map;

  /// Resident bytes charged against this shard's capacity slice.
  size_t bytes = 0;

  /// Negative side table: refs whose last model probe came back NotFound,
  /// stamped with the epoch at probe time. An entry is only believed while
  /// its stamp equals the current epoch — every write bumps the epoch, so
  /// stale verdicts die passively; they are reaped when touched or when
  /// the LRU bound pushes them out.
  std::list<ObjectRef> neg_lru;  ///< front = coldest
  struct NegSlot {
    uint64_t epoch = 0;
    std::list<ObjectRef>::iterator lru_it;
  };
  std::unordered_map<ObjectRef, NegSlot> neg_map;
};

ObjectCache::ObjectCache(const ObjCacheOptions& options) : options_(options) {
  const uint32_t n = PickShardCount(options.shard_count);
  mask_ = n - 1;
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = std::max<size_t>(options.capacity_bytes / n, 1);
  negative_capacity_ =
      options.negative_capacity == 0
          ? 0
          : std::max<size_t>(options.negative_capacity / n, 1);
}

ObjectCache::~ObjectCache() = default;

ObjCacheEntryRef ObjectCache::Lookup(ObjectRef ref, uint64_t* epoch_out) {
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(ref);
  if (it == shard.map.end()) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    if (epoch_out != nullptr) *epoch_out = epoch_.load();
    return nullptr;
  }
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  // Touch: splice the key to the MRU end without invalidating iterators.
  shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
  return it->second.entry;
}

bool ObjectCache::EraseLocked(Shard& shard, ObjectRef ref) {
  auto it = shard.map.find(ref);
  if (it == shard.map.end()) return false;
  const ObjCacheEntryRef& entry = it->second.entry;
  shard.bytes -= entry->bytes;
  stats_.bytes.fetch_sub(entry->bytes, std::memory_order_relaxed);
  stats_.entries.fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
  return true;
}

void ObjectCache::Insert(ObjectRef ref, Tuple object, uint64_t epoch) {
  auto entry = std::make_shared<ObjCacheEntry>();
  entry->bytes = sizeof(ObjCacheEntry) + DeepSizeOf(object) + kEntryOverhead;
  entry->object = std::move(object);

  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (epoch_.load() != epoch) {
    // A write landed after this assembly sampled the epoch: the pages it
    // read may have been mid-write. Never publish it.
    stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  EraseLocked(shard, ref);
  if (entry->bytes > shard_capacity_) return;  // would evict everything
  while (shard.bytes + entry->bytes > shard_capacity_ && !shard.lru.empty()) {
    const ObjectRef victim = shard.lru.front();
    EraseLocked(shard, victim);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  auto lru_it = shard.lru.insert(shard.lru.end(), ref);
  shard.bytes += entry->bytes;
  stats_.bytes.fetch_add(entry->bytes, std::memory_order_relaxed);
  stats_.entries.fetch_add(1, std::memory_order_relaxed);
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  shard.map.emplace(ref, Shard::Slot{std::move(entry), lru_it});
}

bool ObjectCache::LookupNegative(ObjectRef ref) {
  if (negative_capacity_ == 0) return false;
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.neg_map.find(ref);
  if (it == shard.neg_map.end()) return false;
  if (it->second.epoch != epoch_.load()) {
    // A write ran since the verdict was recorded: the object may exist
    // now. Reap the stale entry instead of letting the LRU carry it.
    shard.neg_lru.erase(it->second.lru_it);
    shard.neg_map.erase(it);
    stats_.negative_entries.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  shard.neg_lru.splice(shard.neg_lru.end(), shard.neg_lru, it->second.lru_it);
  stats_.negative_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ObjectCache::InsertNegative(ObjectRef ref, uint64_t epoch) {
  if (negative_capacity_ == 0) return;
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (epoch_.load() != epoch) {
    // A write overlapped the model probe; its NotFound verdict may already
    // be wrong (a concurrent Put can have created the object).
    stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto it = shard.neg_map.find(ref);
  if (it != shard.neg_map.end()) {
    it->second.epoch = epoch;
    shard.neg_lru.splice(shard.neg_lru.end(), shard.neg_lru,
                         it->second.lru_it);
    return;
  }
  while (shard.neg_map.size() >= negative_capacity_ &&
         !shard.neg_lru.empty()) {
    shard.neg_map.erase(shard.neg_lru.front());
    shard.neg_lru.pop_front();
    stats_.negative_entries.fetch_sub(1, std::memory_order_relaxed);
  }
  auto lru_it = shard.neg_lru.insert(shard.neg_lru.end(), ref);
  shard.neg_map.emplace(ref, Shard::NegSlot{epoch, lru_it});
  stats_.negative_inserts.fetch_add(1, std::memory_order_relaxed);
  stats_.negative_entries.fetch_add(1, std::memory_order_relaxed);
}

void ObjectCache::InvalidateRef(ObjectRef ref) {
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Bump even when absent: an in-flight assembly of `ref` may be about to
  // publish a pre-write snapshot, and the epoch is what stops it.
  epoch_.fetch_add(1);
  if (EraseLocked(shard, ref)) {
    stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  // The usual caller is a write to `ref` itself — after a Put the object
  // exists, so the negative verdict must go at once (the epoch bump alone
  // would only neutralize it).
  auto neg_it = shard.neg_map.find(ref);
  if (neg_it != shard.neg_map.end()) {
    shard.neg_lru.erase(neg_it->second.lru_it);
    shard.neg_map.erase(neg_it);
    stats_.negative_entries.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ObjectCache::Clear() {
  epoch_.fetch_add(1);
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    stats_.invalidations.fetch_add(shard.map.size(),
                                   std::memory_order_relaxed);
    stats_.entries.fetch_sub(shard.map.size(), std::memory_order_relaxed);
    stats_.bytes.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
    stats_.negative_entries.fetch_sub(shard.neg_map.size(),
                                      std::memory_order_relaxed);
    shard.neg_map.clear();
    shard.neg_lru.clear();
  }
}

size_t ObjectCache::TotalBytes() const {
  return stats_.bytes.load(std::memory_order_relaxed);
}

namespace {

size_t DeepExtraOf(const Tuple& tuple);

size_t DeepExtraOf(const Value& value) {
  if (value.is_string()) {
    const std::string& s = value.as_string();
    // SSO strings own no heap; charge only spilled capacity.
    return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
  }
  if (value.is_relation()) {
    const std::vector<Tuple>& rel = value.as_relation();
    size_t n = rel.capacity() * sizeof(Tuple);
    for (const Tuple& sub : rel) n += DeepExtraOf(sub);
    return n;
  }
  return 0;
}

size_t DeepExtraOf(const Tuple& tuple) {
  size_t n = tuple.values.capacity() * sizeof(Value);
  for (const Value& v : tuple.values) n += DeepExtraOf(v);
  return n;
}

void ProjectRec(const Schema& root, const Schema& schema, PathId path,
                const Tuple& in, const Projection& projection, Tuple* out) {
  const std::vector<Attribute>& attrs = schema.attributes();
  out->values.reserve(in.values.size());
  for (size_t i = 0; i < attrs.size() && i < in.values.size(); ++i) {
    if (attrs[i].type != AttrType::kRelation) {
      out->values.push_back(in.values[i]);
      continue;
    }
    // Unselected relation attributes come back EMPTY — the serializer's
    // partial-read contract (nf2/serializer.h).
    auto child_or = root.ChildPath(path, i);
    if (!child_or.ok() || !projection.Includes(child_or.value())) {
      out->values.push_back(Value::Relation({}));
      continue;
    }
    const PathId child = child_or.value();
    const std::vector<Tuple>& in_rel = in.values[i].as_relation();
    std::vector<Tuple> out_rel(in_rel.size());
    for (size_t t = 0; t < in_rel.size(); ++t) {
      ProjectRec(root, *attrs[i].relation, child, in_rel[t], projection,
                 &out_rel[t]);
    }
    out->values.push_back(Value::Relation(std::move(out_rel)));
  }
}

void CollectLinksRec(const Schema& schema, const Tuple& tuple,
                     std::vector<ObjectRef>* out) {
  const std::vector<Attribute>& attrs = schema.attributes();
  for (size_t i = 0; i < attrs.size() && i < tuple.values.size(); ++i) {
    if (attrs[i].type == AttrType::kLink) {
      out->push_back(tuple.values[i].as_link());
    } else if (attrs[i].type == AttrType::kRelation) {
      for (const Tuple& sub : tuple.values[i].as_relation()) {
        CollectLinksRec(*attrs[i].relation, sub, out);
      }
    }
  }
}

}  // namespace

size_t DeepSizeOf(const Tuple& tuple) {
  return sizeof(Tuple) + DeepExtraOf(tuple);
}

Tuple ProjectAssembled(const Schema& root, const Tuple& full,
                       const Projection& projection) {
  if (projection.IsAll()) return full;
  Tuple out;
  ProjectRec(root, root, kRootPath, full, projection, &out);
  return out;
}

std::vector<ObjectRef> CollectAssembledLinks(const Schema& root,
                                             const Tuple& full) {
  std::vector<ObjectRef> out;
  CollectLinksRec(root, full, &out);
  return out;
}

}  // namespace starfish
