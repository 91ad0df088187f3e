#include "runner.h"

#include <cstdlib>
#include <map>
#include <unordered_set>

namespace perfbench {

using starfish::Status;
using starfish::Tuple;
using starfish::workload::IsWriteClass;
using starfish::workload::TraceOp;
using starfish::workload::TraceOpKind;

namespace {

// Units per phase with one client: phases carry no barrier then, they only
// bound the bookkeeping.
constexpr size_t kSerialPhaseUnits = 4096;

bool ParseDouble(const std::string& v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return !v.empty() && end != nullptr && *end == '\0';
}

bool ParseU32(const std::string& v, uint32_t* out) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || end == nullptr || *end != '\0' || x > 0xFFFFFFFFull) {
    return false;
  }
  *out = static_cast<uint32_t>(x);
  return true;
}

OpClass ClassOf(TraceOpKind kind) {
  switch (kind) {
    case TraceOpKind::kGet:
    case TraceOpKind::kChildren:
    case TraceOpKind::kRootRecord:
      return OpClass::kGet;
    case TraceOpKind::kGetByKey:
      return OpClass::kByKey;
    case TraceOpKind::kScan:
      return OpClass::kScan;
    default:
      return OpClass::kWrite;
  }
}

SpanKind SpanOf(OpClass cls) {
  switch (cls) {
    case OpClass::kGet: return SpanKind::kOpGet;
    case OpClass::kByKey: return SpanKind::kOpByKey;
    case OpClass::kWrite: return SpanKind::kOpWrite;
    case OpClass::kScan: return SpanKind::kOpScan;
  }
  return SpanKind::kOpGet;
}

bool Matches(const Status& status, bool expect_ok) {
  return expect_ok ? status.ok() : status.IsNotFound();
}

}  // namespace

bool ParseSpec(const std::vector<std::string>& params, WorkloadSpec* spec,
               std::string* error) {
  using starfish::StorageModelKind;
  using starfish::VolumeKind;
  using starfish::WalSyncPolicy;
  auto& sc = spec->scenario;
  const std::map<std::string, uint32_t*> counts = {
      {"buffer_frames", &spec->buffer_frames},
      {"buffer_shards", &spec->buffer_shards},
      {"write_stripes", &spec->write_stripes},
      {"clients", &spec->clients},
      {"n_objects", &sc.n_objects},
      {"trace_ops", &sc.n_ops},
      {"max_growth", &sc.max_growth},
      {"drift_every", &sc.drift_every},
      {"burst_len", &sc.burst_len},
      {"warmup_ops", &spec->warmup_ops},
      {"flush_every_ops", &spec->flush_every_ops},
      {"verify_ops", &spec->verify_ops},
      {"count_ops", &spec->count_ops},
  };
  const std::map<std::string, double*> fractions = {
      {"zipf_theta", &sc.zipf_theta},
      {"txn_fraction", &sc.txn_fraction},
  };
  const std::map<std::string, StorageModelKind> models = {
      {"dsm", StorageModelKind::kDsm},
      {"dasdbs_nsm", StorageModelKind::kDasdbsNsm}};
  const std::map<std::string, VolumeKind> backends = {
      {"mem", VolumeKind::kMem},
      {"mmap", VolumeKind::kMmap},
      {"direct", VolumeKind::kDirect}};
  const std::map<std::string, WalSyncPolicy> syncs = {
      {"none", WalSyncPolicy::kNone},
      {"always", WalSyncPolicy::kAlways}};
  const auto pick = [](const auto& table, const std::string& v, auto* out) {
    const auto it = table.find(v);
    if (it == table.end()) return false;
    *out = it->second;
    return true;
  };

  for (const std::string& kv : params) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      *error = "parameter '" + kv + "' is not key=value";
      return false;
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    bool ok = false;
    if (const auto it = counts.find(key); it != counts.end()) {
      ok = ParseU32(value, it->second);
    } else if (const auto f = fractions.find(key); f != fractions.end()) {
      ok = ParseDouble(value, f->second);
    } else if (key == "write_fraction") {
      // A flat read/write mix: the generator's schedule starts and ends here.
      ok = ParseDouble(value, &sc.write_fraction);
      sc.write_fraction_end = sc.write_fraction;
    } else if (key == "model") {
      ok = pick(models, value, &spec->model);
    } else if (key == "backend") {
      ok = pick(backends, value, &spec->backend);
    } else if (key == "wal_sync") {
      ok = pick(syncs, value, &spec->wal_sync);
    } else if (key == "objcache") {
      ok = value == "on" || value == "off";
      spec->objcache = value == "on";
    } else {
      *error = "unknown workload parameter '" + key + "'";
      return false;
    }
    if (!ok) {
      *error = "bad value in '" + kv + "'";
      return false;
    }
  }
  if (spec->clients < 1 || spec->clients > 64) {
    *error = "clients must be in [1, 64]";
    return false;
  }
  return true;
}

starfish::StoreOptions MakeStoreOptions(const WorkloadSpec& spec,
                                        const std::string& dir,
                                        Tracer* decorate) {
  starfish::StoreOptions options;
  options.model = spec.model;
  options.backend = spec.backend;
  if (spec.backend != starfish::VolumeKind::kMem) options.path = dir;
  options.buffer_frames = spec.buffer_frames;
  options.buffer_shards = spec.buffer_shards;
  options.write_stripes = spec.write_stripes;
  options.wal_sync = spec.wal_sync;
  options.objcache.enabled = spec.objcache;
  if (decorate != nullptr) {
    options.volume_decorator =
        [decorate](std::unique_ptr<starfish::Volume> inner)
        -> std::unique_ptr<starfish::Volume> {
      return std::make_unique<TracingVolume>(std::move(inner), decorate);
    };
    options.wal_log_decorator =
        [decorate](std::unique_ptr<starfish::LogFile> inner)
        -> std::unique_ptr<starfish::LogFile> {
      return std::make_unique<TracingLogFile>(std::move(inner), decorate);
    };
  }
  return options;
}

starfish::Result<Plan> BuildPlan(const WorkloadSpec& spec) {
  Plan plan;
  STARFISH_ASSIGN_OR_RETURN(plan.trace,
                            starfish::workload::GenerateTrace(spec.scenario));
  const auto& ops = plan.trace.ops;

  // The oracle's status prediction, op by op in trace order: a read finds
  // its ref exactly when the ref is live (the shadow model's Contains), a
  // valid write always succeeds. Presence is all a status depends on, so
  // it is tracked directly, with a transaction's changes undone on
  // Rollback as the shadow model does. Concurrent clients apply
  // disjoint-stream writes, which commute, so trace order is the
  // prediction for every client count.
  std::unordered_set<starfish::ObjectRef> live;
  std::vector<std::pair<starfish::ObjectRef, bool>> txn_undo;  // ref, was live
  bool in_txn = false;
  plan.expect_ok.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const TraceOp& op = ops[i];
    plan.expect_ok[i] = 1;
    switch (op.kind) {
      case TraceOpKind::kGet:
      case TraceOpKind::kGetByKey:
      case TraceOpKind::kChildren:
      case TraceOpKind::kRootRecord:
        plan.expect_ok[i] = live.count(op.ref) ? 1 : 0;
        break;
      case TraceOpKind::kPut:
      case TraceOpKind::kRemove:
        if (in_txn) txn_undo.emplace_back(op.ref, live.count(op.ref) > 0);
        if (op.kind == TraceOpKind::kPut) {
          live.insert(op.ref);
        } else {
          live.erase(op.ref);
        }
        break;
      case TraceOpKind::kBegin:
        in_txn = true;
        txn_undo.clear();
        break;
      case TraceOpKind::kRollback:
        for (size_t k = txn_undo.size(); k-- > 0;) {
          if (txn_undo[k].second) {
            live.insert(txn_undo[k].first);
          } else {
            live.erase(txn_undo[k].first);
          }
        }
        [[fallthrough]];
      case TraceOpKind::kCommit:
        in_txn = false;
        txn_undo.clear();
        break;
      default:  // kScan, kReplace, kUpdateRoot: no presence change
        break;
    }
  }

  // Closed-loop units: a transaction group is one unit.
  std::vector<Unit> units;
  for (uint32_t i = 0; i < ops.size();) {
    Unit unit;
    unit.begin = i;
    unit.cls = ClassOf(ops[i].kind);
    if (ops[i].kind == TraceOpKind::kBegin) {
      while (i < ops.size() && ops[i].kind != TraceOpKind::kCommit &&
             ops[i].kind != TraceOpKind::kRollback) {
        ++i;
      }
      if (i == ops.size()) {
        return Status::Internal("trace ends inside a transaction group");
      }
    }
    unit.end = ++i;
    units.push_back(unit);
  }

  const uint32_t clients = spec.clients;
  const uint32_t load_end = spec.scenario.n_objects;
  const auto client_of = [&](const Unit& u) {
    return clients == 1 ? 0u : ops[u.begin].stream % clients;
  };
  const auto new_phase = [&](bool write, uint32_t begin) {
    Phase phase;
    phase.write = write;
    phase.begin = phase.end = begin;
    phase.per_client.resize(clients);
    plan.phases.push_back(std::move(phase));
  };
  bool in_load = true;
  for (const Unit& u : units) {
    const bool write = u.cls == OpClass::kWrite;
    if (in_load && u.begin >= load_end) {
      plan.load_phases = plan.phases.size();
      in_load = false;
      new_phase(write, u.begin);
    } else if (plan.phases.empty()) {
      new_phase(write, u.begin);
    } else if (clients == 1 &&
               plan.phases.back().per_client[0].size() >= kSerialPhaseUnits) {
      new_phase(write, u.begin);
    } else if (clients > 1 && plan.phases.back().write != write) {
      new_phase(write, u.begin);
    }
    Phase& phase = plan.phases.back();
    phase.per_client[client_of(u)].push_back(u);
    phase.end = u.end;
  }
  if (in_load) plan.load_phases = plan.phases.size();
  return plan;
}

// ------------------------------------------------------------------ Runner --

Runner::Runner(starfish::ComplexObjectStore* store, const Plan* plan,
               const WorkloadSpec& spec, Tracer* tracer, bool counters)
    : store_(store),
      plan_(plan),
      spec_(spec),
      tracer_(tracer),
      counters_(counters),
      all_(starfish::Projection::All(*store->schema())),
      clients_(spec.clients) {
  if (spec_.clients > 1) {
    workers_.reserve(spec_.clients);
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      workers_.emplace_back([this, c] { WorkerLoop(c); });
    }
  }
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void Runner::Fail(ClientState* state, uint32_t index, const std::string& what) {
  ++state->failed;
  if (state->first_failure.empty()) {
    const TraceOp& op = plan_->trace.ops[index];
    state->first_failure =
        "seed " + std::to_string(plan_->trace.header.seed) + " op " +
        std::to_string(index) + " " + starfish::workload::ToString(op.kind) +
        " ref=" + std::to_string(op.ref) + ": " + what;
  }
}

template <typename Reader>
bool Runner::ExecRead(Reader& reader, uint32_t index) {
  using starfish::workload::WorkloadKeyOf;
  const TraceOp& op = plan_->trace.ops[index];
  const bool expect_ok = plan_->expect_ok[index];
  switch (op.kind) {
    case TraceOpKind::kScan:
      return reader
          .Scan(all_, [](int64_t, const Tuple&) { return Status::OK(); })
          .ok();
    case TraceOpKind::kGet:
      return Matches(reader.Get(op.ref, all_).status(), expect_ok);
    case TraceOpKind::kGetByKey:
      return Matches(reader.GetByKey(WorkloadKeyOf(op.ref), all_).status(),
                     expect_ok);
    case TraceOpKind::kChildren:
      return Matches(reader.Children(op.ref).status(), expect_ok);
    case TraceOpKind::kRootRecord:
      return Matches(reader.RootRecord(op.ref).status(), expect_ok);
    default:
      return false;
  }
}

uint64_t Runner::ExecWriteUnit(const Unit& unit,
                               const std::vector<Tuple>& payloads,
                               uint32_t* first_bad, Status* first_status) {
  const auto& ops = plan_->trace.ops;
  const auto payload = [&](uint32_t i) -> const Tuple& {
    return payloads[i - unit.begin];
  };
  const auto apply = [&](auto& target, uint32_t i) -> Status {
    const TraceOp& op = ops[i];
    switch (op.kind) {
      case TraceOpKind::kPut: return target.Put(op.ref, payload(i));
      case TraceOpKind::kReplace: return target.Replace(op.ref, payload(i));
      case TraceOpKind::kUpdateRoot:
        return target.UpdateRootRecord(op.ref, payload(i));
      case TraceOpKind::kRemove: return target.Remove(op.ref);
      default: return Status::Internal("not a mutation");
    }
  };
  uint64_t failed = 0;
  const auto note = [&](uint32_t i, const Status& s) {
    if (s.ok()) return;
    if (failed++ == 0) {
      *first_bad = i;
      *first_status = s;
    }
  };
  if (ops[unit.begin].kind != TraceOpKind::kBegin) {
    note(unit.begin, apply(*store_, unit.begin));
    return failed;
  }
  auto txn_or = store_->Begin();
  if (!txn_or.ok()) {
    note(unit.begin, txn_or.status());
    return unit.end - unit.begin;  // none of the group's ops can run
  }
  starfish::StoreTransaction txn = std::move(txn_or).value();
  for (uint32_t i = unit.begin + 1; i + 1 < unit.end; ++i) {
    note(i, apply(txn, i));
  }
  const uint32_t last = unit.end - 1;
  note(last, ops[last].kind == TraceOpKind::kCommit ? txn.Commit()
                                                    : txn.Rollback());
  return failed;
}

template <typename Reader>
void Runner::ExecUnit(Reader& reader, const Unit& unit, ClientState* state,
                      bool measure) {
  const auto& ops = plan_->trace.ops;
  const auto& header = plan_->trace.header;
  const starfish::Schema& schema = *store_->schema();
  const bool write = unit.cls == OpClass::kWrite;

  // Payloads are built before the clock starts: they are the client's
  // input, not the store's work.
  std::vector<Tuple> payloads;
  if (write) {
    payloads.resize(unit.end - unit.begin);
    for (uint32_t i = unit.begin; i < unit.end; ++i) {
      const TraceOp& op = ops[i];
      if (op.kind == TraceOpKind::kPut || op.kind == TraceOpKind::kReplace) {
        payloads[i - unit.begin] = starfish::workload::MakeWorkloadObject(
            schema, op.ref, op.payload_seed, op.fanout, header.ref_universe,
            header.string_bytes);
      } else if (op.kind == TraceOpKind::kUpdateRoot) {
        payloads[i - unit.begin] = starfish::workload::MakeWorkloadRootRecord(
            schema, op.ref, op.payload_seed, header.string_bytes);
      }
    }
  }

  uint32_t op_id = 0;
  if (tracer_ != nullptr) {
    op_id = next_op_id_.fetch_add(1, std::memory_order_relaxed);
    Tracer::SetCurrentOp(op_id);
  }
  starfish::EngineStats engine_before;
  starfish::ObjCacheStats cache_before;
  if (counters_) {
    engine_before = store_->stats();
    cache_before = store_->objcache_stats();
  }

  const int64_t start = NowNs();
  uint64_t failed = 0;
  uint32_t bad = unit.begin;
  Status bad_status;
  if (write) {
    failed = ExecWriteUnit(unit, payloads, &bad, &bad_status);
  } else if (!ExecRead(reader, unit.begin)) {
    failed = 1;
  }
  const int64_t end = NowNs();

  if (tracer_ != nullptr) {
    tracer_->RecordOp(SpanOf(unit.cls), op_id, start, end);
    Tracer::SetCurrentOp(0);
  }
  if (counters_) {
    const auto engine = store_->stats().Since(engine_before);
    const auto cache = store_->objcache_stats().Since(cache_before);
    OpRecord rec;
    rec.op = op_id;
    rec.cls = unit.cls;
    rec.objcache_hit = cache.hits + cache.negative_hits > 0;
    rec.dur_ns = end - start;
    rec.fixes = static_cast<uint32_t>(engine.buffer.fixes);
    rec.misses = static_cast<uint32_t>(engine.buffer.misses);
    rec.pages_read = static_cast<uint32_t>(engine.io.pages_read);
    rec.read_calls = static_cast<uint32_t>(engine.io.read_calls);
    state->records.push_back(rec);
  }
  if (failed > 0) {
    Fail(state, bad,
         write ? "write failed: " + bad_status.ToString()
               : std::string(plan_->expect_ok[unit.begin]
                                 ? "oracle predicts OK"
                                 : "oracle predicts NotFound"));
    state->failed += failed - 1;
  }
  if (measure) {
    state->latency_us[static_cast<int>(unit.cls)].push_back((end - start) *
                                                            1e-3);
  }
  if (write) ++state->write_units;
  state->attempted += unit.end - unit.begin;
}

void Runner::WorkerLoop(uint32_t client) {
  starfish::ReadSession session = store_->OpenReadSession();
  uint64_t seen = 0;
  for (;;) {
    size_t phase = 0;
    bool measure = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return quit_ || generation_ != seen; });
      if (quit_) return;
      seen = generation_;
      phase = phase_;
      measure = phase_measure_;
    }
    for (const Unit& unit : plan_->phases[phase].per_client[client]) {
      ExecUnit(session, unit, &clients_[client], measure);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void Runner::RunPhaseOnClients(size_t phase, bool measure) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    phase_measure_ = measure;
    remaining_ = spec_.clients;
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return remaining_ == 0; });
}

uint32_t Runner::PrefixEnd() const {
  const auto& phases = plan_->phases;
  if (cursor_.phase >= phases.size()) {
    return static_cast<uint32_t>(plan_->trace.ops.size());
  }
  if (spec_.clients == 1) {
    return phases[cursor_.phase].per_client[0][cursor_.unit].begin;
  }
  return phases[cursor_.phase].begin;
}

uint64_t Runner::PhaseOps(size_t phase) const {
  return plan_->phases[phase].end - plan_->phases[phase].begin;
}

bool Runner::MaybeFlush(SegmentResult* result) {
  if (spec_.flush_every_ops == 0 ||
      ops_since_flush_ < spec_.flush_every_ops) {
    return true;
  }
  ops_since_flush_ = 0;
  uint32_t op_id = 0;
  if (tracer_ != nullptr) {
    op_id = next_op_id_.fetch_add(1, std::memory_order_relaxed);
    Tracer::SetCurrentOp(op_id);
  }
  const int64_t start = NowNs();
  const Status flushed = store_->Flush();
  const int64_t end = NowNs();
  if (tracer_ != nullptr) {
    tracer_->RecordOp(SpanKind::kFlush, op_id, start, end);
    Tracer::SetCurrentOp(0);
  }
  if (!flushed.ok()) {
    ++result->failed;
    if (result->first_failure.empty()) {
      result->first_failure = "seed " +
                              std::to_string(plan_->trace.header.seed) +
                              " checkpoint Flush failed: " +
                              flushed.ToString();
    }
    return false;
  }
  return true;
}

SegmentResult Runner::Run(const StopRule& rule, bool measure) {
  SegmentResult result;
  const auto& phases = plan_->phases;
  const bool serial = spec_.clients == 1;
  uint64_t ops_done = 0;
  result.start_ns = NowNs();

  const auto measured_samples_ok = [&] {
    for (OpClass cls : {OpClass::kGet, OpClass::kByKey, OpClass::kWrite}) {
      size_t n = 0;
      for (const ClientState& c : clients_) {
        n += c.latency_us[static_cast<int>(cls)].size();
      }
      if (n < kMinTailSamples) return false;
    }
    return true;
  };
  const auto should_stop = [&] {
    if (rule.has_target) return cursor_ == rule.target;
    if (rule.min_ops > 0 && ops_done >= rule.min_ops) return true;
    if (rule.seconds > 0) {
      const double elapsed = (NowNs() - result.start_ns) * 1e-9;
      if (elapsed >= rule.max_seconds) return true;
      if (elapsed >= rule.seconds && (!measure || measured_samples_ok())) {
        return true;
      }
    }
    return false;
  };

  bool stopped = false;
  bool snapped = false;
  while (cursor_.phase < phases.size()) {
    if (should_stop()) {
      stopped = true;
      break;
    }
    const bool post_load = cursor_.phase >= plan_->load_phases;
    if (serial) {
      const Unit& unit = phases[cursor_.phase].per_client[0][cursor_.unit];
      ExecUnit(*store_, unit, &clients_[0], measure);
      const uint64_t n = unit.end - unit.begin;
      ops_done += n;
      if (post_load) ops_since_flush_ += n;
      if (++cursor_.unit == phases[cursor_.phase].per_client[0].size()) {
        ++cursor_.phase;
        cursor_.unit = 0;
      }
    } else {
      RunPhaseOnClients(cursor_.phase, measure);
      const uint64_t n = PhaseOps(cursor_.phase);
      ops_done += n;
      if (post_load) ops_since_flush_ += n;
      ++cursor_.phase;
    }
    if (rule.on_snapshot && !snapped && ops_done >= rule.snapshot_ops) {
      snapped = true;
      rule.on_snapshot(ops_done);
    }
    if (post_load && !MaybeFlush(&result)) break;
  }
  if (!stopped && cursor_.phase >= phases.size() && !should_stop()) {
    result.exhausted = true;
  }
  result.end_ns = NowNs();
  result.end = cursor_;
  result.prefix_end = PrefixEnd();

  for (ClientState& c : clients_) {
    for (int k = 0; k < kOpClasses; ++k) {
      auto& dst = result.latency_us[k];
      dst.insert(dst.end(), c.latency_us[k].begin(), c.latency_us[k].end());
    }
    result.attempted += c.attempted;
    result.failed += c.failed;
    result.write_units += c.write_units;
    if (result.first_failure.empty()) result.first_failure = c.first_failure;
    result.records.insert(result.records.end(), c.records.begin(),
                          c.records.end());
    c = ClientState{};
  }
  return result;
}

}  // namespace perfbench
