#pragma once

// The benchmark's closed-loop op runner. A workload's seeded trace is cut
// into closed-loop units (one op, or one whole transaction group) and into
// phases; a Runner replays the units against one ComplexObjectStore from a
// fixed set of client threads and measures every unit's latency.
//
// Single client: units run in trace order on the calling thread.
// Several clients: phases alternate read-only and write-class stretches of
// the trace (the store's readers-vs-writers contract); a phase's units are
// split by `op.stream % clients`, so concurrent writers touch disjoint refs
// and a transaction group stays on one client. The client threads are
// created once per Runner and meet at a barrier at every phase boundary.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/complex_object_store.h"
#include "tracing.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace perfbench {

// Everything that defines one workload. Filled from the key=value
// parameters run.py reads from workloads.json; generator parameters no
// workload sets keep the generator's defaults (its op mix).
struct WorkloadSpec {
  std::string name;
  starfish::StorageModelKind model = starfish::StorageModelKind::kDasdbsNsm;
  starfish::VolumeKind backend = starfish::VolumeKind::kMmap;
  bool objcache = false;  // on: the store's default 64 MiB cache
  uint32_t buffer_frames = 1200;
  uint32_t buffer_shards = 1;
  uint32_t write_stripes = 1;
  starfish::WalSyncPolicy wal_sync = starfish::WalSyncPolicy::kNone;
  uint32_t clients = 1;
  // Generator parameters; `seed` comes from --seed, `n_ops` from trace_ops.
  starfish::workload::ScenarioParams scenario;
  // Post-load ops run untimed before the timed phase (cache warm-up).
  uint32_t warmup_ops = 0;
  // A Flush checkpoint runs at the first phase boundary after this many
  // post-load ops since the last one (0 = never).
  uint32_t flush_every_ops = 0;
  // Post-load ops of the oracle-verified replay.
  uint32_t verify_ops = 1000;
  // Timed ops after which the count metrics (fixes_per_op, peak_rss_mb) are
  // taken: a fixed op count, so they depend on the seed and not on how
  // many ops the host's speed lets a run complete.
  uint32_t count_ops = 0;
};

// Samples a class needs before its p99 counts (ten beyond the 99th
// percentile). The timed phase runs past --seconds until every class has
// them, up to kMaxSecondsFactor x --seconds.
inline constexpr size_t kMinTailSamples = 1000;
inline constexpr double kMaxSecondsFactor = 1.2;

// Parses `key=value` pairs into `spec`. False (with `error`) on an unknown
// key or a malformed value.
bool ParseSpec(const std::vector<std::string>& params, WorkloadSpec* spec,
               std::string* error);

// Store options of a workload; `decorate` installs the tracing decorators.
starfish::StoreOptions MakeStoreOptions(const WorkloadSpec& spec,
                                        const std::string& dir,
                                        Tracer* decorate);

enum class OpClass : uint8_t { kGet = 0, kByKey, kWrite, kScan };
inline constexpr int kOpClasses = 4;

// One closed-loop request: trace ops [begin, end).
struct Unit {
  uint32_t begin = 0;
  uint32_t end = 0;
  OpClass cls = OpClass::kGet;
};

struct Phase {
  bool write = false;
  uint32_t begin = 0;  // trace op range covered by the phase
  uint32_t end = 0;
  std::vector<std::vector<Unit>> per_client;
};

// A generated trace cut for execution, plus the oracle's status prediction
// for every op.
struct Plan {
  starfish::workload::Trace trace;
  std::vector<uint8_t> expect_ok;  // 1 = OK predicted, 0 = NotFound
  std::vector<Phase> phases;
  size_t load_phases = 0;  // phases [0, load_phases) are the load
};

// Generates the trace for `spec` (seeded by spec.scenario.seed) and cuts it.
starfish::Result<Plan> BuildPlan(const WorkloadSpec& spec);

// A position in the plan: phase index + unit index within it (the unit
// index is always 0 with several clients, which stop at phase boundaries).
struct Cursor {
  size_t phase = 0;
  size_t unit = 0;
  bool operator==(const Cursor& o) const {
    return phase == o.phase && unit == o.unit;
  }
};

// Per-unit counter deltas of the traced pass.
struct OpRecord {
  uint32_t op = 0;
  OpClass cls = OpClass::kGet;
  bool objcache_hit = false;
  int64_t dur_ns = 0;
  uint32_t fixes = 0;
  uint32_t misses = 0;
  uint32_t pages_read = 0;
  uint32_t read_calls = 0;
};

// When a segment stops. Checked at every stop point (unit boundary with one
// client, phase boundary with several).
struct StopRule {
  // Stop once this many trace ops ran (0 = no op budget).
  uint64_t min_ops = 0;
  // Stop at this exact cursor (when set).
  bool has_target = false;
  Cursor target;
  // Stop once this many seconds elapsed and every measured class has
  // kMinTailSamples samples, or max_seconds elapsed (0 = no deadline).
  double seconds = 0;
  double max_seconds = 0;
  // Called once, with the ops run so far, at the first unit (one client)
  // or phase (several) boundary at which at least snapshot_ops ran.
  uint64_t snapshot_ops = 0;
  std::function<void(uint64_t ops_done)> on_snapshot;
};

struct SegmentResult {
  std::array<std::vector<double>, kOpClasses> latency_us;
  uint64_t attempted = 0;  // trace ops
  uint64_t failed = 0;     // ops whose status the oracle did not predict
  std::string first_failure;
  uint64_t write_units = 0;
  std::vector<OpRecord> records;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Cursor end;
  uint32_t prefix_end = 0;  // every trace op before this index ran
  bool exhausted = false;   // the plan ran out before the stop rule held

  double wall_s() const { return (end_ns - start_ns) * 1e-9; }
};

class Runner {
 public:
  // `tracer` may be null (untraced). `counters` records per-unit counter
  // deltas (traced pass only).
  Runner(starfish::ComplexObjectStore* store, const Plan* plan,
         const WorkloadSpec& spec, Tracer* tracer, bool counters);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  // Runs from the current cursor until `rule` holds or the plan ends.
  // `measure` keeps latencies (false for load and warm-up).
  SegmentResult Run(const StopRule& rule, bool measure);

  // Index of the first trace op not yet run: every op before it has run.
  uint32_t PrefixEnd() const;

 private:
  struct ClientState {
    std::array<std::vector<double>, kOpClasses> latency_us;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t write_units = 0;
    std::string first_failure;
    std::vector<OpRecord> records;
  };

  template <typename Reader>
  void ExecUnit(Reader& reader, const Unit& unit, ClientState* state,
                bool measure);
  template <typename Reader>
  // Runs one read op; true when its status is the one the oracle predicted.
  bool ExecRead(Reader& reader, uint32_t index);
  // Runs one write unit; returns how many of its ops failed and reports
  // the first failure.
  uint64_t ExecWriteUnit(const Unit& unit,
                         const std::vector<starfish::Tuple>& payloads,
                         uint32_t* first_bad, starfish::Status* first_status);
  void Fail(ClientState* state, uint32_t index, const std::string& what);

  void RunPhaseOnClients(size_t phase, bool measure);
  void WorkerLoop(uint32_t client);
  // Runs the Flush checkpoint when flush_every_ops post-load ops ran since
  // the last one. False when it failed (recorded in `result`).
  bool MaybeFlush(SegmentResult* result);
  uint64_t PhaseOps(size_t phase) const;

  starfish::ComplexObjectStore* store_;
  const Plan* plan_;
  WorkloadSpec spec_;
  Tracer* tracer_;
  bool counters_;
  starfish::Projection all_;
  Cursor cursor_;
  uint64_t ops_since_flush_ = 0;
  std::atomic<uint32_t> next_op_id_{1};

  std::vector<ClientState> clients_;

  // Phase hand-off to the client threads (several clients only).
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;  // guarded by mu_
  size_t phase_ = 0;         // guarded by mu_
  bool phase_measure_ = false;
  uint32_t remaining_ = 0;   // guarded by mu_
  bool quit_ = false;        // guarded by mu_
  std::vector<std::thread> workers_;  // declared last: uses the state above
};

}  // namespace perfbench
