// The repository benchmark: replays one seeded, oracle-checked workload
// against ComplexObjectStore through its public API and prints the
// end-to-end metrics (--trace 0) or the per-layer split from a traced run
// (--trace 1). The last stdout line is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usually started through perfbench/run.py, which builds this program and
// passes the workload's parameters from perfbench/workloads.json:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR --out-dir DIR [--inject status|state]
//             --param key=value ...
//
// Exit code 0 = measured and correct, 1 = the oracle caught a divergence
// (the message names the reproducing seed), 2 = usage or set-up error.

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/complex_object_store.h"
#include "nf2/serializer.h"
#include "runner.h"
#include "tracing.h"
#include "workload/replayer.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using starfish::ComplexObjectStore;
using starfish::Status;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".";
  std::string out_dir = ".";
  std::string inject;  // "", "status" or "state": self-check of the gate
  std::vector<std::string> params;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") args->workload = value;
    else if (flag == "--seed") args->seed = std::strtoull(value.c_str(), 0, 10);
    else if (flag == "--seconds") args->seconds = std::atof(value.c_str());
    else if (flag == "--trace") args->trace = value == "1";
    else if (flag == "--data-dir") args->data_dir = value;
    else if (flag == "--out-dir") args->out_dir = value;
    else if (flag == "--inject") args->inject = value;
    else if (flag == "--param") args->params.push_back(value);
    else return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Seconds(int64_t ns) { return ns * 1e-9; }

// ------------------------------------------------------------- statistics --

// A nearest-rank percentile with its sample count and how many samples lie
// beyond it (the tail is trusted when at least ten do).
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};

Percentile PercentileOf(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  p.value = v[rank - 1];
  p.beyond = v.size() - rank;
  return p;
}

double Median(std::vector<double> v) {
  return PercentileOf(std::move(v), 0.5).value;
}

// Flushes the filesystem holding `dir` (syncfs), so write-back and
// discards left by set-up or by an earlier run finish before a timed phase
// starts instead of landing inside it.
void Quiesce(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// Restarts VmHWM at the current resident size (Linux clear_refs "5").
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ------------------------------------------------------------------ setup --

struct SetupTimes {
  double gen_s = 0;   // trace generation + oracle predictions
  double load_s = 0;  // store open + load phase + checkpoint
  double warm_s = 0;  // untimed warm-up
  double total() const { return gen_s + load_s + warm_s; }
};

// A store loaded and warmed, ready for the timed phase. Members are
// destroyed runner first, then store, then plan.
struct Prepared {
  std::unique_ptr<Plan> plan;
  std::unique_ptr<ComplexObjectStore> store;
  std::unique_ptr<Runner> runner;
  SetupTimes times;
  std::string dir;
};

bool Persistent(const WorkloadSpec& spec) {
  return spec.backend != starfish::VolumeKind::kMem;
}

starfish::Result<std::unique_ptr<ComplexObjectStore>> OpenStore(
    const WorkloadSpec& spec, const std::string& dir, Tracer* tracer) {
  return ComplexObjectStore::Open(starfish::workload::MakeWorkloadSchema(),
                                  MakeStoreOptions(spec, dir, tracer));
}

// A store op failed or returned a status the oracle did not predict before
// the timed phase; `failure` names the op and the seed.
[[noreturn]] void SetupDiverged(const char* phase,
                                const std::string& failure) {
  std::printf("# CORRECTNESS FAILURE in the %s phase: %s\n", phase,
              failure.c_str());
  std::exit(1);
}

// One full set-up: generate, open a fresh store, load, checkpoint, warm up.
// With a tracer the store carries the tracing decorators (recording off).
Prepared Setup(const WorkloadSpec& spec, const std::string& dir,
               Tracer* tracer) {
  Prepared p;
  p.dir = dir;
  int64_t t = NowNs();
  auto plan = BuildPlan(spec);
  if (!plan.ok()) Die("trace generation: " + plan.status().ToString());
  p.plan = std::make_unique<Plan>(std::move(plan).value());
  p.times.gen_s = Seconds(NowNs() - t);

  t = NowNs();
  std::filesystem::remove_all(dir);
  auto store = OpenStore(spec, dir, tracer);
  if (!store.ok()) Die("open store: " + store.status().ToString());
  p.store = std::move(store).value();
  if (!p.store->model()->SupportsGetByRef()) {
    Die("the workload's model has no by-ref access");
  }
  p.runner = std::make_unique<Runner>(p.store.get(), p.plan.get(), spec,
                                      tracer, tracer != nullptr);
  StopRule load;
  load.has_target = true;
  load.target = Cursor{p.plan->load_phases, 0};
  SegmentResult loaded = p.runner->Run(load, false);
  if (loaded.failed > 0) SetupDiverged("load", loaded.first_failure);
  if (Persistent(spec)) {
    const Status flushed = p.store->Flush();
    if (!flushed.ok()) Die("load checkpoint: " + flushed.ToString());
  }
  p.times.load_s = Seconds(NowNs() - t);

  t = NowNs();
  StopRule warm;
  warm.min_ops = spec.warmup_ops;
  if (warm.min_ops > 0) {
    SegmentResult warmed = p.runner->Run(warm, false);
    if (warmed.failed > 0) SetupDiverged("warm-up", warmed.first_failure);
  }
  p.times.warm_s = Seconds(NowNs() - t);
  return p;
}

double MedianOf(const std::vector<SetupTimes>& all,
                double SetupTimes::*part) {
  std::vector<double> v;
  for (const SetupTimes& s : all) v.push_back(s.*part);
  return Median(std::move(v));
}

// Set-ups per run; setup_s is their median.
constexpr uint32_t kSetupRepeats = 5;

// kSetupRepeats set-ups; all but the last are discarded. Returns the last
// and appends every set-up's timings to `all`.
Prepared SetupRepeated(const WorkloadSpec& spec, const std::string& dir,
                       std::vector<SetupTimes>* all) {
  Prepared kept;
  for (uint32_t i = 0; i < kSetupRepeats; ++i) {
    // Drop the previous set-up (runner, store, plan) before the next one.
    kept.runner.reset();
    kept.store.reset();
    kept.plan.reset();
    kept = Setup(spec, dir, nullptr);
    all->push_back(kept.times);
  }
  return kept;
}

// ------------------------------------------------------------ correctness --

// Live volume bytes of `store` over the encoded bytes of the objects the
// oracle holds live.
double SpaceAmp(ComplexObjectStore& store,
                const starfish::workload::ShadowModel& shadow) {
  starfish::ObjectSerializer serializer(store.schema());
  uint64_t encoded = 0;
  for (const auto& [key, object] : shadow.ExpectScan()) {
    auto regions = serializer.ToRegions(object);
    if (!regions.ok()) Die("encode: " + regions.status().ToString());
    for (const auto& region : regions.value()) encoded += region.bytes.size();
  }
  const starfish::Volume* volume = store.engine()->disk();
  return encoded == 0 ? 0
                      : static_cast<double>(volume->live_page_count() *
                                            volume->page_size()) /
                            encoded;
}

struct Verdict {
  bool ok = true;
  std::string message;
  void Fail(const std::string& what) {
    if (ok) message = what;
    ok = false;
  }
};

std::string SeedTag(const WorkloadSpec& spec) {
  return "[workload " + spec.name + ", reproduce with --seed " +
         std::to_string(spec.scenario.seed) + "] ";
}

// The oracle-verified replay: the workload's own store configuration
// replays the first verify_ops post-load ops of the same seeded trace with
// every read compared byte for byte against the shadow model, then the
// final state (and, for a persistent store, its reopen) is checked.
// Returns the store's space amplification at that point: load plus a fixed
// op prefix, so the figure depends on the seed alone and not on how many
// ops the host's speed let a timed run complete.
double VerifiedReplay(const WorkloadSpec& spec, const std::string& dir,
                      Verdict* verdict) {
  using namespace starfish::workload;
  ScenarioParams params = spec.scenario;
  params.n_ops = spec.verify_ops;
  auto trace = GenerateTrace(params);
  if (!trace.ok()) Die("verify trace: " + trace.status().ToString());
  std::filesystem::remove_all(dir);
  auto store_or = OpenStore(spec, dir, nullptr);
  if (!store_or.ok()) Die("open store: " + store_or.status().ToString());
  auto store = std::move(store_or).value();
  auto schema = MakeWorkloadSchema();
  TraceReplayer replayer(trace.value(), schema);
  ReplayOptions options;
  options.threads = spec.clients;
  auto replayed = replayer.Replay(store.get(), options);
  if (!replayed.ok()) {
    verdict->Fail(SeedTag(spec) + "verified replay: " +
                  replayed.status().ToString());
    return 0;
  }
  const Status final_state = replayer.VerifyFinalState(store.get());
  if (!final_state.ok()) {
    verdict->Fail(SeedTag(spec) + "verified replay final state: " +
                  final_state.ToString());
    return 0;
  }
  const double space_amp = SpaceAmp(*store, replayer.shadow());
  if (Persistent(spec)) {
    const Status closed = store->Close();
    store.reset();
    if (!closed.ok()) {
      verdict->Fail(SeedTag(spec) + "close: " + closed.ToString());
      return 0;
    }
    auto reopened = OpenStore(spec, dir, nullptr);
    if (!reopened.ok()) {
      verdict->Fail(SeedTag(spec) + "reopen: " + reopened.status().ToString());
      return 0;
    }
    auto digest = TraceReplayer::StoreStateDigest(reopened.value().get());
    if (!digest.ok() || digest.value() != replayer.shadow().Digest()) {
      verdict->Fail(SeedTag(spec) + "verified replay: reopened state digest "
                    "differs from the oracle");
    }
  }
  std::filesystem::remove_all(dir);
  return space_amp;
}

struct FinalState {
  double space_amp = 0;
  uint32_t digest = 0;
};

// Checks a timed run's store against the oracle. The shadow model is
// advanced through the write-class ops the run executed (reads do not
// change state) by a replay against an in-memory store; then
// VerifyFinalState compares the timed store's full scan with it. With
// `reopen` the store is closed and reopened and its digest must equal the
// shadow's. Consumes `p`.
FinalState VerifyRun(const WorkloadSpec& spec, Prepared p, uint32_t prefix_end,
                     bool reopen, bool inject_state, Verdict* verdict) {
  using namespace starfish::workload;
  FinalState out;
  Trace writes;
  writes.header = p.plan->trace.header;
  for (uint32_t i = 0; i < prefix_end; ++i) {
    const TraceOp& op = p.plan->trace.ops[i];
    if (IsWriteClass(op.kind)) writes.ops.push_back(op);
  }
  if (inject_state) {
    // Self-check of the gate: forget the last autonomous Replace or
    // UpdateRoot (one outside any transaction, so no rollback undoes it).
    size_t victim = writes.ops.size();
    bool in_txn = false;
    for (size_t i = 0; i < writes.ops.size(); ++i) {
      const TraceOpKind k = writes.ops[i].kind;
      if (k == TraceOpKind::kBegin) in_txn = true;
      if (k == TraceOpKind::kCommit || k == TraceOpKind::kRollback) {
        in_txn = false;
      }
      if (!in_txn &&
          (k == TraceOpKind::kReplace || k == TraceOpKind::kUpdateRoot)) {
        victim = i;
      }
    }
    if (victim < writes.ops.size()) {
      writes.ops.erase(writes.ops.begin() + victim);
    }
  }
  auto schema = MakeWorkloadSchema();
  starfish::StoreOptions mem_options;
  mem_options.model = spec.model;
  mem_options.write_stripes = spec.write_stripes;
  auto mem_store = ComplexObjectStore::Open(schema, mem_options);
  if (!mem_store.ok()) Die("in-memory store: " + mem_store.status().ToString());
  TraceReplayer replayer(writes, schema);
  auto replayed = replayer.Replay(mem_store.value().get(), ReplayOptions{});
  if (!replayed.ok()) {
    verdict->Fail(SeedTag(spec) + "oracle replay of the executed writes: " +
                  replayed.status().ToString());
    return out;
  }
  mem_store.value().reset();

  out.space_amp = SpaceAmp(*p.store, replayer.shadow());

  const Status final_state = replayer.VerifyFinalState(p.store.get());
  if (!final_state.ok()) {
    verdict->Fail(SeedTag(spec) + "final state after the timed run: " +
                  final_state.ToString());
    return out;
  }
  auto digest = TraceReplayer::StoreStateDigest(p.store.get());
  if (!digest.ok()) Die("digest: " + digest.status().ToString());
  out.digest = digest.value();

  p.runner.reset();
  if (reopen) {
    const Status closed = p.store->Close();
    p.store.reset();
    if (!closed.ok()) {
      verdict->Fail(SeedTag(spec) + "close after the timed run: " +
                    closed.ToString());
      return out;
    }
    auto reopened = OpenStore(spec, p.dir, nullptr);
    if (!reopened.ok()) {
      verdict->Fail(SeedTag(spec) + "reopen after the timed run: " +
                    reopened.status().ToString());
      return out;
    }
    auto again = TraceReplayer::StoreStateDigest(reopened.value().get());
    if (!again.ok() || again.value() != replayer.shadow().Digest()) {
      verdict->Fail(SeedTag(spec) +
                    "reopened store's state digest differs from the oracle");
    }
  }
  p.store.reset();
  std::filesystem::remove_all(p.dir);
  return out;
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed in the table only
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("#   %-34s %16s %-6s %s\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

Metric LatencyMetric(const std::string& name,
                     const std::vector<double>& samples, double q) {
  const Percentile p = PercentileOf(samples, q);
  Metric m{name, p.value, "us", ""};
  m.note = "n=" + std::to_string(p.samples) + " beyond=" +
           std::to_string(p.beyond);
  if (p.beyond < 10) m.note += " (tail under-sampled: fewer than 10 beyond)";
  return m;
}

// ------------------------------------------------------------ end to end --

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  const std::string dir = args.data_dir + "/" + spec.name;
  Verdict verdict;
  int64_t t = NowNs();
  const double space_amp = VerifiedReplay(spec, dir, &verdict);
  const double verify_replay_s = Seconds(NowNs() - t);

  std::vector<SetupTimes> setups;
  Prepared p = SetupRepeated(spec, dir, &setups);
  const double setup_rss_mib = PeakRssMiB();
  // peak_rss_mb covers the timed phase (the loaded store, its caches and
  // the plan), not the discarded set-ups: their freed memory goes back to
  // the system and the peak restarts, so the figure does not depend on how
  // the allocator happened to lay out the set-ups.
  malloc_trim(0);
  ResetPeakRss();
  if (args.inject == "status") {
    // Self-check of the gate: flip the prediction of the next read.
    const auto& ops = p.plan->trace.ops;
    for (uint32_t i = p.runner->PrefixEnd(); i < ops.size(); ++i) {
      if (!starfish::workload::IsWriteClass(ops[i].kind) &&
          ops[i].kind != starfish::workload::TraceOpKind::kScan) {
        p.plan->expect_ok[i] ^= 1;
        break;
      }
    }
  }

  StopRule rule;
  rule.seconds = args.seconds;
  rule.max_seconds = args.seconds * kMaxSecondsFactor;
  // The count metrics are taken after the first count_ops timed ops.
  const starfish::EngineStats before = p.store->stats();
  uint64_t counted_ops = 0, fixes = 0;
  double peak_rss_mib = 0;
  rule.snapshot_ops = spec.count_ops;
  rule.on_snapshot = [&](uint64_t ops_done) {
    counted_ops = ops_done;
    fixes = p.store->stats().Since(before).buffer.fixes;
    peak_rss_mib = PeakRssMiB();
  };
  Quiesce(args.data_dir);
  SegmentResult run = p.runner->Run(rule, true);
  if (counted_ops == 0) {
    // A run too slow to reach count_ops counts over all of its ops.
    std::fprintf(stderr,
                 "perfbench: the run ended before count_ops=%u ops; the count "
                 "metrics cover its %llu ops\n",
                 spec.count_ops,
                 static_cast<unsigned long long>(run.attempted));
    counted_ops = run.attempted;
    fixes = p.store->stats().Since(before).buffer.fixes;
    peak_rss_mib = PeakRssMiB();
  }
  if (run.exhausted) {
    std::fprintf(stderr,
                 "perfbench: the trace ran out after %.2f s; raise trace_ops\n",
                 run.wall_s());
  }
  if (run.failed > 0) {
    verdict.Fail(SeedTag(spec) + "timed run: " + std::to_string(run.failed) +
                 " op(s) returned a status the oracle did not predict; "
                 "first: " +
                 run.first_failure);
  }
  t = NowNs();
  const FinalState final_state =
      VerifyRun(spec, std::move(p), run.prefix_end, Persistent(spec),
                args.inject == "state", &verdict);
  const double verify_run_s = Seconds(NowNs() - t);

  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.total());
  const auto& lat = run.latency_us;
  const int get = static_cast<int>(OpClass::kGet);
  const int bykey = static_cast<int>(OpClass::kByKey);
  const int write = static_cast<int>(OpClass::kWrite);

  // The result line carries the metrics whose run-to-run spread this host
  // lets stay within a regression bound; the wall-clock figures follow the
  // shared host's speed, which drifts by up to 1.5x within minutes, so they
  // are printed in the table (and by the traced run) without a bound.
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(totals), "s",
                     "median of " + std::to_string(totals.size()) +
                         " set-ups"});
  metrics.push_back({"fixes_per_op", Ratio(fixes, counted_ops), "count",
                     "fixes=" + std::to_string(fixes) + " over the first " +
                         std::to_string(counted_ops) + " timed ops"});
  metrics.push_back({"peak_rss_mb", peak_rss_mib, "MiB",
                     "VmHWM after the first " + std::to_string(counted_ops) +
                         " timed ops"});
  metrics.push_back({"space_amp", space_amp, "ratio",
                     "after load + verify_ops ops"});

  std::vector<Metric> table = metrics;
  table.push_back({"ops_per_s", Ratio(run.attempted, run.wall_s()), "ops/s",
                   "ops=" + std::to_string(run.attempted) + " wall_s=" +
                       Num(run.wall_s()) + " scans=" +
                       std::to_string(
                           lat[static_cast<int>(OpClass::kScan)].size())});
  table.push_back(LatencyMetric("get_p50_us", lat[get], 0.50));
  table.push_back(LatencyMetric("bykey_p50_us", lat[bykey], 0.50));
  table.push_back(LatencyMetric("write_p50_us", lat[write], 0.50));
  table.push_back(LatencyMetric("get_p99_us", lat[get], 0.99));
  table.push_back(LatencyMetric("bykey_p99_us", lat[bykey], 0.99));
  table.push_back(LatencyMetric("write_p99_us", lat[write], 0.99));
  table.push_back({"space_amp_after_run", final_state.space_amp, "ratio",
                   "grows with the ops the run completed"});
  table.push_back({"failed_frac", Ratio(run.failed, run.attempted), "ratio",
                   "reported as failed/attempted in the result line"});
  PrintTable(spec.name + " seed=" + std::to_string(args.seed) +
                 " end-to-end (tracing off)",
             table);
  std::printf("#   harness: verified replay %.3f s, set-up parts (median) gen "
              "%.3f s load %.3f s warm %.3f s, post-run check %.3f s, peak "
              "RSS after set-up %.1f MiB, over the timed phase and checks "
              "%.1f MiB\n",
              verify_replay_s, MedianOf(setups, &SetupTimes::gen_s),
              MedianOf(setups, &SetupTimes::load_s),
              MedianOf(setups, &SetupTimes::warm_s), verify_run_s,
              setup_rss_mib, PeakRssMiB());
  if (!verdict.ok) {
    std::printf("# CORRECTNESS FAILURE: %s\n", verdict.message.c_str());
  }
  PrintResult(verdict.ok, run.attempted, run.failed, metrics);
  return verdict.ok ? 0 : 1;
}

// ----------------------------------------------------------------- traced --

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  const std::string dir = args.data_dir + "/" + spec.name;
  Verdict verdict;
  VerifiedReplay(spec, dir, &verdict);

  // Reference pass, tracing off: half the time budget.
  std::vector<SetupTimes> setups;
  Prepared ref = SetupRepeated(spec, dir, &setups);
  StopRule rule;
  rule.seconds = args.seconds / 2;
  rule.max_seconds = rule.seconds * kMaxSecondsFactor;
  Quiesce(args.data_dir);
  const starfish::EngineStats ref_before = ref.store->stats();
  SegmentResult ref_run = ref.runner->Run(rule, true);
  const starfish::EngineStats ref_delta = ref.store->stats().Since(ref_before);
  const Cursor target = ref_run.end;
  const FinalState ref_final =
      VerifyRun(spec, std::move(ref), ref_run.prefix_end, false, false,
                &verdict);

  // Traced pass: the same set-up with the decorators, then exactly the
  // units the reference pass ran.
  Tracer tracer;
  Prepared p = Setup(spec, dir, &tracer);
  StopRule same;
  same.has_target = true;
  same.target = target;
  const starfish::EngineStats before = p.store->stats();
  const starfish::ObjCacheStats cache_before = p.store->objcache_stats();
  const uint64_t lsn_before = p.store->wal() ? p.store->wal()->next_lsn() : 0;
  Quiesce(args.data_dir);
  tracer.set_enabled(true);
  SegmentResult run = p.runner->Run(same, true);
  tracer.set_enabled(false);
  const starfish::EngineStats delta = p.store->stats().Since(before);
  const starfish::ObjCacheStats cache =
      p.store->objcache_stats().Since(cache_before);
  const uint64_t lsn_delta =
      p.store->wal() ? p.store->wal()->next_lsn() - lsn_before : 0;
  const starfish::LinearTimingModel timing = p.store->options().timing;
  if (run.failed > 0 || ref_run.failed > 0) {
    verdict.Fail(SeedTag(spec) + "traced run: op status the oracle did not "
                 "predict: " + run.first_failure + ref_run.first_failure);
  }
  const FinalState final_state = VerifyRun(
      spec, std::move(p), run.prefix_end, Persistent(spec), false, &verdict);

  // Faithful tracing: the traced program did the same work.
  if (final_state.digest != ref_final.digest) {
    verdict.Fail(SeedTag(spec) + "traced run's final state differs from the "
                 "untraced run's");
  }
  if (spec.clients == 1) {
    const bool same_counters =
        delta.io.pages_read == ref_delta.io.pages_read &&
        delta.io.pages_written == ref_delta.io.pages_written &&
        delta.io.read_calls == ref_delta.io.read_calls &&
        delta.io.write_calls == ref_delta.io.write_calls &&
        delta.buffer.fixes == ref_delta.buffer.fixes;
    if (!same_counters) {
      verdict.Fail(SeedTag(spec) + "traced run's counters differ: traced " +
                   delta.io.ToString() + " fixes=" +
                   std::to_string(delta.buffer.fixes) + " untraced " +
                   ref_delta.io.ToString() + " fixes=" +
                   std::to_string(ref_delta.buffer.fixes));
    }
  }

  // ---- spans -> per-op child time, closure, call latencies
  const std::vector<Span> spans = tracer.Collect();
  std::filesystem::create_directories(args.out_dir);
  const std::string span_file =
      args.out_dir + "/spans-" + spec.name + ".bin";
  if (!Tracer::WriteFile(spans, span_file)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", span_file.c_str());
  }
  std::map<uint32_t, int64_t> child_ns;  // op id -> disk + wal child time
  std::vector<std::pair<int64_t, int64_t>> covered;  // op + flush spans
  std::vector<double> read_call_us, write_call_us, vol_sync_ms, log_sync_us,
      append_us, flush_ms;
  int64_t disk_ns = 0, wal_ns = 0, flush_ns = 0;
  uint64_t appends = 0, append_bytes = 0, log_syncs = 0, replaces = 0;
  for (const Span& s : spans) {
    const int64_t d = s.end_ns - s.start_ns;
    if (s.kind <= SpanKind::kFlush) {
      covered.emplace_back(s.start_ns, s.end_ns);
      if (s.kind == SpanKind::kFlush) {
        flush_ns += d;
        flush_ms.push_back(d * 1e-6);
      }
      continue;
    }
    if (s.op != 0) child_ns[s.op] += d;
    if (IsDiskSpan(s.kind)) {
      disk_ns += d;
      if (IsDiskReadSpan(s.kind) && s.kind != SpanKind::kCompleteRead) {
        read_call_us.push_back(d * 1e-3);
      } else if (IsDiskWriteSpan(s.kind)) {
        write_call_us.push_back(d * 1e-3);
      } else if (s.kind == SpanKind::kVolumeSync) {
        vol_sync_ms.push_back(d * 1e-6);
      }
    } else if (IsWalSpan(s.kind)) {
      wal_ns += d;
      if (s.kind == SpanKind::kLogAppend) {
        ++appends;
        append_bytes += s.amount;
        append_us.push_back(d * 1e-3);
      } else if (s.kind == SpanKind::kLogSync) {
        ++log_syncs;
        log_sync_us.push_back(d * 1e-3);
      } else {
        ++replaces;
      }
    }
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0, reach = run.start_ns;
  for (const auto& [b, e] : covered) {
    const int64_t lo = std::max(b, reach);
    if (e > lo) {
      union_ns += e - lo;
      reach = e;
    }
  }
  const double wall_ns = static_cast<double>(run.end_ns - run.start_ns);
  const double closure = Ratio(union_ns, wall_ns);

  // ---- per-op records -> per-class ratios and self time
  struct ClassAgg {
    uint64_t n = 0, fixes = 0, misses = 0, pages_read = 0, read_calls = 0;
    std::vector<double> self_us;
  };
  ClassAgg agg[kOpClasses];
  std::vector<double> hit_us, miss_us;
  for (const OpRecord& r : run.records) {
    ClassAgg& a = agg[static_cast<int>(r.cls)];
    ++a.n;
    a.fixes += r.fixes;
    a.misses += r.misses;
    a.pages_read += r.pages_read;
    a.read_calls += r.read_calls;
    const auto it = child_ns.find(r.op);
    a.self_us.push_back((r.dur_ns - (it == child_ns.end() ? 0 : it->second)) *
                        1e-3);
    if (r.cls == OpClass::kGet) {
      (r.objcache_hit ? hit_us : miss_us).push_back(r.dur_ns * 1e-3);
    }
  }
  const ClassAgg& get = agg[static_cast<int>(OpClass::kGet)];
  const ClassAgg& bykey = agg[static_cast<int>(OpClass::kByKey)];
  const ClassAgg& write = agg[static_cast<int>(OpClass::kWrite)];
  const double units = static_cast<double>(run.write_units);
  const double traced_ops_s = Ratio(run.attempted, run.wall_s());
  const double untraced_ops_s = Ratio(ref_run.attempted, ref_run.wall_s());
  const auto& ref_lat = ref_run.latency_us;

  std::vector<Metric> m = {
      {"core.self_us.get", Median(get.self_us), "us", ""},
      {"core.self_us.bykey", Median(bykey.self_us), "us", ""},
      {"core.self_us.write", Median(write.self_us), "us", ""},
      {"core.flush_ms", Median(flush_ms), "ms",
       "p50 of " + std::to_string(flush_ms.size()) + " checkpoints"},
      {"core.flush_stall_frac", Ratio(flush_ns, wall_ns), "ratio", ""},
      {"core.span_closure", closure, "ratio", "must be >= 0.9"},
      {"objcache.hit_ratio", cache.HitRatio(), "ratio", ""},
      {"objcache.hit_us", Median(hit_us), "us",
       "n=" + std::to_string(hit_us.size())},
      {"objcache.miss_us", Median(miss_us), "us",
       "n=" + std::to_string(miss_us.size())},
      {"objcache.invalidations_per_write", Ratio(cache.invalidations, units),
       "count", ""},
      {"objcache.negative_hits", static_cast<double>(cache.negative_hits),
       "count", ""},
      {"objcache.stale_drops", static_cast<double>(cache.stale_drops), "count",
       ""},
      {"objcache.evictions", static_cast<double>(cache.evictions), "count", ""},
      {"objcache.bytes", static_cast<double>(cache.bytes), "bytes", "gauge"},
      {"models.fixes_per_get", Ratio(get.fixes, get.n), "count", ""},
      {"models.fixes_per_bykey", Ratio(bykey.fixes, bykey.n), "count", ""},
      {"models.fixes_per_write", Ratio(write.fixes, write.n), "count", ""},
      {"buffer.hit_ratio", Ratio(delta.buffer.hits, delta.buffer.fixes),
       "ratio", ""},
      {"buffer.misses_per_get", Ratio(get.misses, get.n), "count", ""},
      {"buffer.misses_per_bykey", Ratio(bykey.misses, bykey.n), "count", ""},
      {"buffer.evictions", static_cast<double>(delta.buffer.evictions), "count",
       ""},
      {"buffer.write_backs", static_cast<double>(delta.buffer.write_backs),
       "count", ""},
      {"buffer.prefetched_pages",
       static_cast<double>(delta.buffer.prefetched_pages), "count", ""},
      {"disk.pages_read_per_get", Ratio(get.pages_read, get.n), "count", ""},
      {"disk.read_calls_per_get", Ratio(get.read_calls, get.n), "count", ""},
      {"disk.pages_read_per_bykey", Ratio(bykey.pages_read, bykey.n), "count",
       ""},
      {"disk.read_calls_per_bykey", Ratio(bykey.read_calls, bykey.n), "count",
       ""},
      {"disk.pages_per_read_call",
       Ratio(delta.io.pages_read, delta.io.read_calls), "count", ""},
      {"disk.pages_written", static_cast<double>(delta.io.pages_written),
       "count", ""},
      {"disk.write_calls", static_cast<double>(delta.io.write_calls), "count",
       ""},
      {"disk.read_call_us_p50", PercentileOf(read_call_us, 0.5).value, "us",
       "n=" + std::to_string(read_call_us.size())},
      {"disk.read_call_us_p99", PercentileOf(read_call_us, 0.99).value, "us",
       "beyond=" + std::to_string(PercentileOf(read_call_us, 0.99).beyond)},
      {"disk.write_call_us_p50", PercentileOf(write_call_us, 0.5).value, "us",
       "n=" + std::to_string(write_call_us.size())},
      {"disk.sync_ms", Median(vol_sync_ms), "ms",
       "p50 of " + std::to_string(vol_sync_ms.size()) + " volume syncs"},
      {"disk.busy_frac", Ratio(disk_ns, wall_ns), "ratio", ""},
      {"disk.modelled_ms_per_op", Ratio(timing.Cost(delta.io), run.attempted),
       "ms", "Eq. 1 count, not a measured time"},
      {"wal.records_per_write", Ratio(lsn_delta, units), "count", ""},
      {"wal.bytes_per_write", Ratio(append_bytes, units), "bytes", ""},
      {"wal.appends", static_cast<double>(appends), "count", ""},
      {"wal.syncs", static_cast<double>(log_syncs), "count", ""},
      {"wal.writes_per_sync", Ratio(units, log_syncs), "count", ""},
      {"wal.sync_us_p50", PercentileOf(log_sync_us, 0.5).value, "us", ""},
      {"wal.sync_us_p99", PercentileOf(log_sync_us, 0.99).value, "us",
       "beyond=" + std::to_string(PercentileOf(log_sync_us, 0.99).beyond)},
      {"wal.append_us_p50", PercentileOf(append_us, 0.5).value, "us", ""},
      {"wal.busy_frac", Ratio(wal_ns, wall_ns), "ratio", ""},
      {"wal.truncations", static_cast<double>(replaces), "count", ""},
      {"workload.gen_s", MedianOf(setups, &SetupTimes::gen_s), "s", ""},
      {"workload.load_s", MedianOf(setups, &SetupTimes::load_s), "s", ""},
      {"workload.warm_s", MedianOf(setups, &SetupTimes::warm_s), "s", ""},
      {"trace.ops_per_s", traced_ops_s, "ops/s", ""},
      {"trace.untraced_ops_per_s", untraced_ops_s, "ops/s", ""},
      {"trace.untraced_get_p50_us",
       Median(ref_lat[static_cast<int>(OpClass::kGet)]), "us", ""},
      {"trace.untraced_bykey_p50_us",
       Median(ref_lat[static_cast<int>(OpClass::kByKey)]), "us", ""},
      {"trace.untraced_write_p50_us",
       Median(ref_lat[static_cast<int>(OpClass::kWrite)]), "us", ""},
      {"trace.overhead_frac", 1.0 - Ratio(traced_ops_s, untraced_ops_s),
       "ratio", ""},
  };
  if (closure < 0.9) {
    verdict.Fail(SeedTag(spec) + "core.span_closure " + Num(closure) +
                 " < 0.9: op spans do not cover the timed wall time");
  }
  PrintTable(spec.name + " seed=" + std::to_string(args.seed) +
                 " per-layer (traced run, " + std::to_string(spans.size()) +
                 " spans in " + span_file + ")",
             m);
  if (!verdict.ok) {
    std::printf("# CORRECTNESS FAILURE: %s\n", verdict.message.c_str());
  }
  PrintResult(verdict.ok, run.attempted, run.failed, m);
  return verdict.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--data-dir DIR] [--out-dir DIR] [--inject status|state] "
        "--param key=value ...");
  }
  WorkloadSpec spec;
  spec.name = args.workload;
  std::string error;
  if (!ParseSpec(args.params, &spec, &error)) Die(error);
  spec.scenario.seed = args.seed;
  std::filesystem::create_directories(args.data_dir);
  const int code = args.trace ? RunTraced(args, spec) : RunEndToEnd(args, spec);
  // Leave no write-back behind for whatever runs next.
  std::filesystem::remove_all(args.data_dir);
  Quiesce(std::filesystem::path(args.data_dir).parent_path().string());
  return code;
}
