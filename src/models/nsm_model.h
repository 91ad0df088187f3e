#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "index/bplus_tree.h"
#include "index/transformation_table.h"
#include "models/normalization.h"
#include "models/storage_model.h"
#include "storage/record_manager.h"

/// \file nsm_model.h
/// The Normalized Storage Model (§3.3): one flat relation per tuple-type
/// path, stored in small shared-page records.
///
/// Plain NSM has no access path except full relation scans — every
/// value-based selection reads a whole relation, which is why the paper
/// finds it "not particularly suited for complex object storage". Object
/// references (query 1a) are unsupported ("With NSM we have no
/// identifiers").
///
/// The indexed variant (the paper's "NSM+index" rows of Table 3) adds an
/// in-memory root-key index on each non-root relation: "a page is read from
/// disk then and only then if a tuple it stores is requested". Value
/// selection on the root relation itself still scans — the index maps root
/// keys of child tuples, not the root relation's own key.

namespace starfish {

/// NSM behaviour switches.
struct NsmModelOptions {
  /// Maintain and use root-key indexes on the child relations.
  bool with_index = false;

  /// Store those indexes in persistent B+-trees whose page I/O is metered,
  /// instead of the paper's free in-memory tables. Implies with_index.
  /// This is the "honest" NSM+index the ablation benches quantify: index
  /// probes cost real page fixes and, when cold, real reads.
  bool persistent_index = false;
};

/// NSM / NSM+index implementation.
class NsmModel : public StorageModel {
 public:
  static Result<std::unique_ptr<NsmModel>> Create(StorageEngine* engine,
                                                  ModelConfig config,
                                                  NsmModelOptions options);

  StorageModelKind kind() const override {
    return options_.with_index ? StorageModelKind::kNsmIndexed
                               : StorageModelKind::kNsm;
  }

  Status Insert(ObjectRef ref, const Tuple& object) override;
  Result<Tuple> GetByRef(ObjectRef ref, const Projection& proj) override;
  Result<Tuple> GetByKey(int64_t key, const Projection& proj) override;
  std::optional<ObjectRef> RefOfKey(int64_t key) const override {
    auto it = ref_of_key_.find(key);
    if (it == ref_of_key_.end()) return std::nullopt;
    return it->second;
  }
  Status ScanAll(const Projection& proj, const ScanCallback& fn) override;
  Result<std::vector<ObjectRef>> GetChildRefs(ObjectRef ref) override;
  Result<Tuple> GetRootRecord(ObjectRef ref) override;
  /// Plain NSM answers a whole batch with one scan of each link relation
  /// (set-oriented value selection); the indexed variant fetches per object.
  Result<std::vector<std::vector<ObjectRef>>> GetChildRefsBatch(
      const std::vector<ObjectRef>& refs) override;
  Result<std::vector<Tuple>> GetRootRecordsBatch(
      const std::vector<ObjectRef>& refs) override;
  Status UpdateRootRecord(ObjectRef ref, const Tuple& new_root) override;
  Status ReplaceObject(ObjectRef ref, const Tuple& new_object) override;
  Status Remove(ObjectRef ref) override;
  bool SupportsGetByRef() const override { return options_.with_index; }
  uint64_t object_count() const override { return live_count_; }
  Status SaveState(std::string* out) const override;
  Status LoadState(std::string_view* in) override;
  Status CollectLiveTids(std::vector<Tid>* out) const override;
  /// Every write op shreds the object over all path relations (and their
  /// index trees), so the write-latch set is all of them — NSM ops never
  /// apply in parallel with each other.
  void CollectWriteSegments(ObjectRef ref,
                            std::vector<Segment*>* out) const override;
  /// Plain NSM has no by-ref access; undo capture goes through the key map.
  Result<Tuple> ReadObjectForUndo(ObjectRef ref) override;

  /// The decomposition in use (tests/calibration).
  const NsmDecomposition& decomposition() const { return decomp_; }

  /// Relation segment of one path (tests/calibration).
  Segment* segment(PathId path) { return segments_[path]; }

 private:
  NsmModel(ModelConfig config, NsmDecomposition decomp,
           NsmModelOptions options);

  /// Scans the whole relation of `path`, calling `fn` for each flat tuple.
  Status ScanRelation(PathId path,
                      const std::function<Status(Tid, const Tuple&)>& fn);

  /// Index probe: addresses of object `key`'s tuples in `path` (empty when
  /// none). Uses the metered B+-tree when persistent_index is set,
  /// otherwise the free in-memory table.
  Result<std::vector<Tid>> ChildTids(PathId path, int64_t key);

  /// Index maintenance on insert/replace/remove.
  Status IndexAdd(PathId path, int64_t key, const Tid& tid);
  Status IndexDropKey(PathId path, int64_t key);

  /// Reads the flat tuples at `tids` (index-assisted fetch).
  Result<std::vector<Tuple>> FetchTuples(PathId path,
                                         const std::vector<Tid>& tids);

  /// Collects the flat tuples of object `key` for every projected path:
  /// relation scans (plain) or index fetches (indexed).
  Result<ShreddedObject> CollectObject(int64_t key, const Projection& proj);

  Result<int64_t> RefToKey(ObjectRef ref) const;

  NsmDecomposition decomp_;
  NsmModelOptions options_;
  std::vector<Segment*> segments_;                       // per path
  std::vector<std::unique_ptr<RecordManager>> records_;  // per path
  // In-memory maps (uncounted, per the paper's accounting).
  std::vector<int64_t> key_of_ref_;  // kNoKey sentinel marks free refs
  std::unordered_map<int64_t, ObjectRef> ref_of_key_;
  std::vector<Tid> root_tid_of_ref_;
  std::vector<TransformationTable> index_;  // per path: RootKey -> tids
  // Metered twins of index_ (persistent_index mode only; empty otherwise).
  std::vector<std::unique_ptr<BPlusTree>> trees_;
  uint64_t live_count_ = 0;
};

}  // namespace starfish
