#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/random.h"

namespace starfish::workload {

namespace {

/// Guaranteed-miss probe targets live in a small window past every ref the
/// generator can Put — small on purpose, so probes repeat and the negative
/// cache's side table actually gets hits.
constexpr uint64_t kMissRange = 8;

/// Zipf(theta) sampler over ranks 0..n-1 (rank 0 hottest) via an explicit
/// cumulative table — exact, deterministic, and cheap at workload sizes
/// (n is the live-object count). Entry r depends on r alone, so the table
/// only ever grows: a draw over n ranks reads its first n entries.
class ZipfPicker {
 public:
  size_t Pick(size_t n, double theta, Rng* rng) {
    if (n == 0) return 0;
    if (theta != theta_) {
      theta_ = theta;
      cumulative_.clear();
    }
    Grow(n);
    const auto end = cumulative_.begin() + static_cast<ptrdiff_t>(n);
    const double u = rng->NextDouble() * cumulative_[n - 1];
    return static_cast<size_t>(std::lower_bound(cumulative_.begin(), end, u) -
                               cumulative_.begin());
  }

 private:
  void Grow(size_t n) {
    double sum = cumulative_.empty() ? 0 : cumulative_.back();
    for (size_t r = cumulative_.size(); r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta_);
      cumulative_.push_back(sum);
    }
  }

  double theta_ = -1;
  std::vector<double> cumulative_;
};

/// The generator's own model of which refs are live, with O(1)
/// swap-with-last removal and an undo log for transaction rollback.
/// Selection order is part of the deterministic contract: identical op
/// sequences yield identical layouts.
class LiveSet {
 public:
  void Insert(ObjectRef ref) {
    index_[ref] = list_.size();
    list_.push_back(ref);
  }

  void Remove(ObjectRef ref) {
    const auto it = index_.find(ref);
    const size_t pos = it->second;
    index_.erase(it);
    if (pos + 1 != list_.size()) {
      list_[pos] = list_.back();
      index_[list_[pos]] = pos;
    }
    list_.pop_back();
    if (logging_) undo_.push_back({ref, pos});
  }

  /// Starts recording removes. Removes are the only mutation inside a
  /// transaction group, so undoing them restores the exact list order.
  void BeginUndo() {
    undo_.clear();
    logging_ = true;
  }

  /// Stops recording; on `rollback`, undoes the recorded removes newest
  /// first, each moving its swapped-in ref back to the end.
  void EndUndo(bool rollback) {
    logging_ = false;
    if (!rollback) return;
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      const auto [ref, pos] = *it;
      if (pos < list_.size()) {
        index_[list_[pos]] = list_.size();
        list_.push_back(list_[pos]);
        list_[pos] = ref;
      } else {
        list_.push_back(ref);
      }
      index_[ref] = pos;
    }
  }

  bool Contains(ObjectRef ref) const { return index_.count(ref) > 0; }
  size_t size() const { return list_.size(); }
  ObjectRef at(size_t i) const { return list_[i]; }

  std::vector<ObjectRef> InStream(uint8_t stream) const {
    std::vector<ObjectRef> out;
    for (ObjectRef ref : list_) {
      if (ref % kTraceStreams == stream) out.push_back(ref);
    }
    return out;
  }

 private:
  std::vector<ObjectRef> list_;
  std::unordered_map<ObjectRef, size_t> index_;
  bool logging_ = false;
  std::vector<std::pair<ObjectRef, size_t>> undo_;  ///< removed ref, its slot
};

/// Skewed fan-out draw: geometric-ish in [1, fanout_max] — most objects
/// small, a heavy tail of big ones.
uint32_t SkewedFanout(Rng* rng, uint32_t fanout_max) {
  uint32_t f = 1;
  while (f < fanout_max && rng->Bernoulli(0.6)) ++f;
  return f;
}

}  // namespace

std::shared_ptr<const Schema> MakeWorkloadSchema() {
  auto item = SchemaBuilder("Item")
                  .AddInt32("Nr")
                  .AddString("Payload")
                  .AddLink("Ref")
                  .Build();
  auto note = SchemaBuilder("Note").AddInt32("Nr").AddString("Text").Build();
  return SchemaBuilder("Doc")
      .AddInt32("Id")
      .AddInt32("Tag")
      .AddString("Name")
      .AddRelation("Items", item)
      .AddRelation("Notes", note)
      .Build();
}

int64_t WorkloadKeyOf(ObjectRef ref) { return static_cast<int64_t>(ref) + 1; }

Tuple MakeWorkloadObject(const Schema& schema, ObjectRef ref,
                         uint64_t payload_seed, uint32_t fanout,
                         uint64_t ref_universe, uint32_t string_bytes) {
  (void)schema;  // shape is fixed; the parameter documents the contract
  Rng rng(payload_seed);
  if (fanout == 0) fanout = 1;
  if (ref_universe == 0) ref_universe = 1;
  std::vector<Tuple> items;
  items.reserve(fanout);
  for (uint32_t i = 0; i < fanout; ++i) {
    items.push_back(Tuple{{Value::Int32(static_cast<int32_t>(i)),
                           Value::Str(rng.RandomString(string_bytes)),
                           Value::Link(rng.Uniform(ref_universe))}});
  }
  const uint32_t notes_count = (fanout + 1) / 2;
  std::vector<Tuple> notes;
  notes.reserve(notes_count);
  for (uint32_t i = 0; i < notes_count; ++i) {
    notes.push_back(Tuple{{Value::Int32(static_cast<int32_t>(i)),
                           Value::Str(rng.RandomString(string_bytes))}});
  }
  return Tuple{{Value::Int32(static_cast<int32_t>(WorkloadKeyOf(ref))),
                Value::Int32(static_cast<int32_t>(rng.UniformInt(0, 1 << 20))),
                Value::Str(rng.RandomString(string_bytes)),
                Value::Relation(std::move(items)),
                Value::Relation(std::move(notes))}};
}

Tuple MakeWorkloadRootRecord(const Schema& schema, ObjectRef ref,
                             uint64_t payload_seed, uint32_t string_bytes) {
  (void)schema;
  Rng rng(payload_seed);
  return Tuple{{Value::Int32(static_cast<int32_t>(WorkloadKeyOf(ref))),
                Value::Int32(static_cast<int32_t>(rng.UniformInt(0, 1 << 20))),
                Value::Str(rng.RandomString(string_bytes)),
                Value::Relation({}),
                Value::Relation({})}};
}

std::vector<Scenario> ScenarioFamilies(uint64_t seed) {
  std::vector<Scenario> families;
  const auto add = [&](const char* name, auto&& tune) {
    Scenario scenario;
    scenario.name = name;
    scenario.params.seed = seed + families.size() * 1000003ull;
    tune(&scenario.params);
    families.push_back(std::move(scenario));
  };
  add("read_mostly", [](ScenarioParams* p) {
    p->write_fraction = p->write_fraction_end = 0.08;
    p->miss_fraction = 0.08;
    p->zipf_theta = 0.9;
  });
  add("write_heavy", [](ScenarioParams* p) {
    p->write_fraction = p->write_fraction_end = 0.6;
    p->max_growth = 40;
    p->txn_fraction = 0.25;
  });
  add("hot_drift", [](ScenarioParams* p) {
    p->zipf_theta = 1.1;
    p->drift_every = 48;
    p->write_fraction = p->write_fraction_end = 0.25;
  });
  add("bursty", [](ScenarioParams* p) {
    p->burst_len = 48;
    p->write_fraction = p->write_fraction_end = 0.5;
  });
  add("txn_mix", [](ScenarioParams* p) {
    p->write_fraction = p->write_fraction_end = 0.45;
    p->txn_fraction = 0.6;
    p->rollback_fraction = 0.4;
    p->txn_ops_max = 6;
  });
  add("scan_heavy", [](ScenarioParams* p) {
    p->scan_fraction = 0.12;
    p->write_fraction = p->write_fraction_end = 0.15;
  });
  add("cooling", [](ScenarioParams* p) {
    // Read/write ratio schedule: a load-then-serve shape — write-heavy
    // start draining to a read-mostly tail.
    p->write_fraction = 0.7;
    p->write_fraction_end = 0.05;
    p->max_growth = 40;
  });
  return families;
}

Result<Trace> GenerateTrace(const ScenarioParams& params) {
  if (params.n_objects < kTraceStreams) {
    return Status::InvalidArgument("n_objects must be >= kTraceStreams");
  }
  if (params.txn_ops_max == 0) {
    return Status::InvalidArgument("txn_ops_max must be >= 1");
  }
  if (params.fanout_max == 0) {
    return Status::InvalidArgument("fanout_max must be >= 1");
  }

  Trace trace;
  trace.header.seed = params.seed;
  trace.header.ref_universe =
      static_cast<uint64_t>(params.n_objects) + params.max_growth + kMissRange;
  trace.header.string_bytes = params.string_bytes;

  Rng rng(params.seed);
  ZipfPicker zipf;
  LiveSet live;
  uint64_t next_new = 0;  // growth refs handed out so far
  size_t drift_offset = 0;
  const uint64_t miss_base =
      static_cast<uint64_t>(params.n_objects) + params.max_growth;
  const size_t remove_floor =
      std::max<size_t>(4, params.n_objects / 3);

  const auto emit = [&](TraceOpKind kind, ObjectRef ref, uint8_t stream,
                        uint32_t fanout, uint64_t payload_seed) {
    TraceOp op;
    op.kind = kind;
    op.ref = ref;
    op.stream = stream;
    op.fanout = fanout;
    op.payload_seed = payload_seed;
    trace.ops.push_back(op);
  };
  const auto emit_ref_op = [&](TraceOpKind kind, ObjectRef ref,
                               uint32_t fanout, uint64_t payload_seed) {
    emit(kind, ref, static_cast<uint8_t>(ref % kTraceStreams), fanout,
         payload_seed);
  };

  // Load phase: Put every initial object.
  for (uint32_t i = 0; i < params.n_objects; ++i) {
    emit_ref_op(TraceOpKind::kPut, i, SkewedFanout(&rng, params.fanout_max),
                rng.Next());
    live.Insert(i);
  }

  // One write op (Replace/UpdateRoot/Remove) on the live ref `ref`. Keeps
  // the live model in sync.
  const auto emit_mutation = [&](ObjectRef ref) {
    const double r = rng.NextDouble();
    if (r < 0.5) {
      emit_ref_op(TraceOpKind::kReplace, ref,
                  SkewedFanout(&rng, params.fanout_max), rng.Next());
    } else if (r < 0.8 || live.size() <= remove_floor) {
      emit_ref_op(TraceOpKind::kUpdateRoot, ref, 0, rng.Next());
    } else {
      emit_ref_op(TraceOpKind::kRemove, ref, 0, 0);
      live.Remove(ref);
    }
  };

  while (trace.ops.size() <
         static_cast<size_t>(params.n_objects) + params.n_ops) {
    const size_t emitted =
        trace.ops.size() - params.n_objects;  // post-load ops so far
    if (params.drift_every > 0 && emitted > 0 &&
        emitted % params.drift_every == 0) {
      drift_offset += 1 + live.size() / 5;
    }

    bool write;
    if (params.burst_len > 0) {
      write = (emitted / params.burst_len) % 2 == 1;
    } else {
      const double t =
          params.n_ops > 1
              ? static_cast<double>(emitted) / (params.n_ops - 1)
              : 0.0;
      write = rng.Bernoulli(params.write_fraction +
                            (params.write_fraction_end -
                             params.write_fraction) *
                                t);
    }

    if (!write) {
      if (rng.Bernoulli(params.scan_fraction)) {
        emit(TraceOpKind::kScan, 0,
             static_cast<uint8_t>(rng.Uniform(kTraceStreams)), 0, 0);
        continue;
      }
      ObjectRef target;
      if (rng.Bernoulli(params.miss_fraction)) {
        // Guaranteed-miss probe — or a probe of the NEXT growth ref, which
        // a later Put will turn into a present object (the negative-cache
        // invalidation hazard).
        if (next_new < params.max_growth && rng.Bernoulli(0.5)) {
          target = params.n_objects + next_new;
        } else {
          target = miss_base + rng.Uniform(kMissRange);
        }
      } else {
        const size_t rank =
            zipf.Pick(live.size(), params.zipf_theta, &rng);
        target = live.at((rank + drift_offset) % live.size());
      }
      const double r = rng.NextDouble();
      if (r < 0.45) {
        emit_ref_op(TraceOpKind::kGet, target, 0, 0);
      } else if (r < 0.65) {
        emit_ref_op(TraceOpKind::kGetByKey, target, 0, 0);
      } else if (r < 0.85) {
        emit_ref_op(TraceOpKind::kChildren, target, 0, 0);
      } else {
        emit_ref_op(TraceOpKind::kRootRecord, target, 0, 0);
      }
      continue;
    }

    // Write decision. A fraction opens a transaction group: contiguous
    // write-class ops, all on ONE stream, sealed by Commit or Rollback.
    if (rng.Bernoulli(params.txn_fraction)) {
      uint8_t stream = static_cast<uint8_t>(rng.Uniform(kTraceStreams));
      std::vector<ObjectRef> candidates = live.InStream(stream);
      for (uint32_t attempt = 1; candidates.empty() && attempt < kTraceStreams;
           ++attempt) {
        stream = static_cast<uint8_t>((stream + 1) % kTraceStreams);
        candidates = live.InStream(stream);
      }
      if (!candidates.empty()) {
        const bool rollback = rng.Bernoulli(params.rollback_fraction);
        const uint64_t group_ops = 1 + rng.Uniform(params.txn_ops_max);
        live.BeginUndo();
        emit(TraceOpKind::kBegin, 0, stream, 0, 0);
        for (uint64_t i = 0; i < group_ops; ++i) {
          candidates = live.InStream(stream);
          if (candidates.empty()) break;
          emit_mutation(candidates[rng.Uniform(candidates.size())]);
        }
        emit(rollback ? TraceOpKind::kRollback : TraceOpKind::kCommit, 0,
             stream, 0, 0);
        live.EndUndo(rollback);
        continue;
      }
      // No stream has a live ref (degenerate) — fall through to autonomous.
    }

    if (next_new < params.max_growth && rng.Bernoulli(0.25)) {
      const ObjectRef ref = params.n_objects + next_new++;
      emit_ref_op(TraceOpKind::kPut, ref,
                  SkewedFanout(&rng, params.fanout_max), rng.Next());
      live.Insert(ref);
      continue;
    }
    emit_mutation(live.at(rng.Uniform(live.size())));
  }

  return trace;
}

}  // namespace starfish::workload
