// WAL commit-latency benchmark: what a durability acknowledgement costs
// per writer, across sync policies and writer counts.
//
// Each cell opens a fresh mmap-backed store, partitions a generated object
// set across N writer threads, and has every thread Put its slice while
// timing each call individually (a Put under kAlways blocks until the
// record is fsync-durable, so the per-call wall time IS the commit
// latency). The interesting comparison is down the policy axis at fixed
// writer count:
//
//   none    the pre-WAL contract — commit returns after the in-memory
//           append; the floor the paper benches run at.
//   always  every commit waits for durability but the leader batches all
//           contemporaries into one fsync, so mean latency should FALL as
//           writers rise — the Samsung-IO-stack observation that one fsync
//           can carry many writers' durability work.
//
// Two further sections ride along:
//
//   * apply scaling — kDsm with write_stripes {1, 4}, wal_sync none, N
//     writers on disjoint stripes: how much of the write path actually
//     runs in parallel once per-segment latches replace the store-wide
//     write mutex (the stripes=1 row IS the serialized baseline). Each
//     Put is timed, so p50/p99 are per-op latencies.
//   * transactions — one writer under kAlways comparing 8 autonomous Puts
//     (8 durability waits) against Begin + 8 Puts + Commit (one wait) and
//     Begin + 8 Puts + Rollback (compensations + abort marker).
//
// Writes BENCH_wal.json. Ungated in CI (fsync latency is runner hardware;
// archive the artifact and watch the trend until the numbers stabilize).
//
// Usage: bench_wal [--ops N] [--dir PATH] [--txn] [--tiny]
//   --ops   per-writer Put count per cell (default 192; fsync-bound cells
//           dominate the runtime)
//   --dir   scratch directory root (default: system temp — point it at a
//           real disk to measure real fsyncs)
//   --txn   run only the apply-scaling and transaction sections (the
//           ci/check.sh txn stage)
//   --tiny  shrink op counts for a smoke run (no JSON)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"

namespace starfish {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kWriterCounts[] = {1, 2, 4, 8};

struct Policy {
  const char* name;
  WalSyncPolicy sync;
};

struct CellResult {
  std::string name;
  const char* policy;
  uint32_t writers = 0;
  uint64_t total_ops = 0;
  double ops_per_sec = 0;
  double mean_us = 0;  ///< mean per-commit latency
  double p50_us = 0;
  double p99_us = 0;
};

void Fatal(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_wal: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

/// Sets mean/p50/p99 from per-op latencies (microseconds, any order).
void Summarize(std::vector<double> us, CellResult* r) {
  std::sort(us.begin(), us.end());
  double sum = 0;
  for (double v : us) sum += v;
  r->mean_us = sum / static_cast<double>(us.size());
  r->p50_us = us[us.size() / 2];
  r->p99_us = us[us.size() * 99 / 100];
}

/// Releases `writers` threads together; thread w Puts db.objects()[i] for
/// every i in `slice(w)`, timing each call. Returns the per-call latencies
/// of all threads merged (microseconds) and the wall time from the common
/// start to the last join in `elapsed_s`.
template <typename Slice>
std::vector<double> TimedPuts(const bench::BenchmarkDatabase& db,
                              ComplexObjectStore* store, uint32_t writers,
                              Slice slice, double* elapsed_s) {
  std::vector<std::vector<double>> latencies(writers);
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(writers);
  for (uint32_t w = 0; w < writers; ++w) {
    pool.emplace_back([&, w] {
      const std::vector<uint64_t> indices = slice(w);
      latencies[w].reserve(indices.size());
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i : indices) {
        const auto& object = db.objects()[i];
        const auto start = Clock::now();
        const Status st = store->Put(object.ref, object.tuple);
        const std::chrono::duration<double, std::micro> took =
            Clock::now() - start;
        if (!st.ok()) Fatal("put", st);
        latencies[w].push_back(took.count());
      }
    });
  }
  while (ready.load() != writers) {
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  *elapsed_s = elapsed.count();

  std::vector<double> merged;
  for (const auto& per_thread : latencies) {
    merged.insert(merged.end(), per_thread.begin(), per_thread.end());
  }
  return merged;
}

/// One benchmark cell: N writers Put their contiguous slices concurrently;
/// per-call latencies are collected, merged and summarized.
CellResult RunCell(const bench::BenchmarkDatabase& db, const Policy& policy,
                   uint32_t writers, uint64_t ops_per_writer,
                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.backend = VolumeKind::kMmap;
  options.path = dir;
  options.wal_sync = policy.sync;
  auto store_or = ComplexObjectStore::Open(db.schema(), options);
  if (!store_or.ok()) Fatal("open store", store_or.status());
  auto store = std::move(store_or).value();

  double elapsed_s = 0;
  std::vector<double> us = TimedPuts(
      db, store.get(), writers,
      [&](uint32_t w) {
        std::vector<uint64_t> indices(ops_per_writer);
        for (uint64_t i = 0; i < ops_per_writer; ++i) {
          indices[i] = w * ops_per_writer + i;
        }
        return indices;
      },
      &elapsed_s);
  store.reset();  // checkpoint + truncate outside the timed region
  std::filesystem::remove_all(dir);

  CellResult r;
  r.policy = policy.name;
  r.writers = writers;
  r.name = std::string("wal_commit_") + policy.name + "_t" +
           std::to_string(writers);
  r.total_ops = us.size();
  r.ops_per_sec = static_cast<double>(r.total_ops) / elapsed_s;
  Summarize(std::move(us), &r);
  return r;
}

/// Apply-scaling cell: N writers Put disjoint ref slices into a striped
/// kDsm store, wal_sync none (no fsync in the loop — the measured work is
/// apply + log append). Writer w takes objects with index ≡ w (mod
/// writers); generated refs are dense, so with writers == stripes every
/// writer stays inside its own stripe and the applies share no latch.
CellResult RunApplyCell(const bench::BenchmarkDatabase& db, uint32_t stripes,
                        uint32_t writers, uint64_t ops_per_writer,
                        const std::string& dir) {
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.backend = VolumeKind::kMmap;
  options.path = dir;
  options.model = StorageModelKind::kDsm;
  options.wal_sync = WalSyncPolicy::kNone;
  options.write_stripes = stripes;
  options.buffer_shards = 0;  // thread-safe pool, derived shard count
  auto store_or = ComplexObjectStore::Open(db.schema(), options);
  if (!store_or.ok()) Fatal("open store", store_or.status());
  auto store = std::move(store_or).value();

  const uint64_t total = writers * ops_per_writer;
  double elapsed_s = 0;
  std::vector<double> us = TimedPuts(
      db, store.get(), writers,
      [&](uint32_t w) {
        std::vector<uint64_t> indices;
        for (uint64_t i = w; i < total; i += writers) indices.push_back(i);
        return indices;
      },
      &elapsed_s);
  store.reset();
  std::filesystem::remove_all(dir);

  CellResult r;
  r.policy = "none";
  r.writers = writers;
  r.name = "wal_apply_dsm_s" + std::to_string(stripes) + "_t" +
           std::to_string(writers);
  r.total_ops = us.size();
  r.ops_per_sec = static_cast<double>(r.total_ops) / elapsed_s;
  Summarize(std::move(us), &r);
  return r;
}

/// Transaction-latency cell: one writer under kAlways, timing batches of
/// `batch` ops shaped per `mode` ("auto" = autonomous Puts, "commit" =
/// Begin..Commit, "abort" = Begin..Rollback).
CellResult RunTxnCell(const bench::BenchmarkDatabase& db,
                      const std::string& mode, uint64_t batches,
                      uint32_t batch, const std::string& dir) {
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.backend = VolumeKind::kMmap;
  options.path = dir;
  options.wal_sync = WalSyncPolicy::kAlways;
  auto store_or = ComplexObjectStore::Open(db.schema(), options);
  if (!store_or.ok()) Fatal("open store", store_or.status());
  auto store = std::move(store_or).value();

  std::vector<double> latencies;
  latencies.reserve(batches);
  const auto run_start = Clock::now();
  for (uint64_t b = 0; b < batches; ++b) {
    // The abort batch reuses one slice: Rollback frees its refs again.
    const uint64_t base = (mode == "abort") ? 0 : b * batch;
    const auto start = Clock::now();
    if (mode == "auto") {
      for (uint32_t i = 0; i < batch; ++i) {
        const auto& object = db.objects()[base + i];
        const Status st = store->Put(object.ref, object.tuple);
        if (!st.ok()) Fatal("autonomous put", st);
      }
    } else {
      auto txn_or = store->Begin();
      if (!txn_or.ok()) Fatal("begin", txn_or.status());
      StoreTransaction txn = std::move(txn_or).value();
      for (uint32_t i = 0; i < batch; ++i) {
        const auto& object = db.objects()[base + i];
        const Status st = txn.Put(object.ref, object.tuple);
        if (!st.ok()) Fatal("txn put", st);
      }
      const Status end =
          (mode == "commit") ? txn.Commit() : txn.Rollback();
      if (!end.ok()) Fatal(mode.c_str(), end);
    }
    const std::chrono::duration<double, std::micro> took =
        Clock::now() - start;
    latencies.push_back(took.count());
  }
  const std::chrono::duration<double> elapsed = Clock::now() - run_start;
  store.reset();
  std::filesystem::remove_all(dir);

  CellResult r;
  r.policy = "always";
  r.writers = 1;
  r.name = "wal_txn_" + mode + std::to_string(batch);
  r.total_ops = batches * batch;
  r.ops_per_sec = static_cast<double>(r.total_ops) / elapsed.count();
  Summarize(std::move(latencies), &r);
  return r;
}

void WriteJson(const std::vector<CellResult>& results, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_wal: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"policy\": \"%s\", "
                 "\"writers\": %u, \"total_ops\": %llu, "
                 "\"ops_per_sec\": %.0f, \"mean_us\": %.2f, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f}%s\n",
                 r.name.c_str(), r.policy, r.writers,
                 static_cast<unsigned long long>(r.total_ops), r.ops_per_sec,
                 r.mean_us, r.p50_us, r.p99_us,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace starfish

int main(int argc, char** argv) {
  using namespace starfish;
  uint64_t ops_per_writer = 192;
  std::string dir_root;
  bool txn_only = false;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ops" && i + 1 < argc) {
      ops_per_writer = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--dir" && i + 1 < argc) {
      dir_root = argv[++i];
    } else if (arg == "--txn") {
      txn_only = true;
    } else if (arg == "--tiny") {
      tiny = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--ops N] [--dir PATH] [--txn] [--tiny]\n",
                   argv[0]);
      return 2;
    }
  }
  if (tiny) ops_per_writer = std::min<uint64_t>(ops_per_writer, 24);
  if (dir_root.empty()) {
    dir_root = (std::filesystem::temp_directory_path() /
                ("starfish_bench_wal_" +
                 std::to_string(static_cast<uint64_t>(
                     Clock::now().time_since_epoch().count()))))
                   .string();
  }

  uint32_t max_writers = 1;
  for (uint32_t w : kWriterCounts) max_writers = std::max(max_writers, w);
  bench::GeneratorConfig config;
  config.n_objects = max_writers * ops_per_writer;
  config.seed = 191;
  auto db_or = bench::BenchmarkDatabase::Generate(config);
  if (!db_or.ok()) Fatal("generate objects", db_or.status());
  const auto db = std::move(db_or).value();

  const Policy policies[] = {
      {"none", WalSyncPolicy::kNone},
      {"always", WalSyncPolicy::kAlways},
  };

  std::printf("mmap backend at %s, %llu puts/writer\n\n", dir_root.c_str(),
              static_cast<unsigned long long>(ops_per_writer));
  std::printf("%-22s %8s %12s %10s %10s %10s\n", "cell", "writers", "ops/sec",
              "mean us", "p50 us", "p99 us");

  std::vector<CellResult> results;
  auto show = [&](CellResult r) {
    std::printf("%-22s %8u %12.0f %10.2f %10.2f %10.2f\n", r.name.c_str(),
                r.writers, r.ops_per_sec, r.mean_us, r.p50_us, r.p99_us);
    results.push_back(std::move(r));
  };

  if (!txn_only) {
    for (const Policy& policy : policies) {
      for (uint32_t writers : kWriterCounts) {
        show(RunCell(db, policy, writers, ops_per_writer,
                     dir_root + "_cell"));
      }
    }
  }

  // Apply scaling: the stripes=1 rows are the serialized baseline the
  // per-segment latches are measured against.
  for (uint32_t stripes : {1u, 4u}) {
    for (uint32_t writers : {1u, 4u}) {
      show(RunApplyCell(db, stripes, writers, ops_per_writer,
                        dir_root + "_cell"));
    }
  }

  // Transactions: batch of 8 ops, autonomous vs one-commit vs rollback.
  const uint32_t batch = 8;
  const uint64_t batches =
      std::max<uint64_t>(1, ops_per_writer * kWriterCounts[0] / batch);
  for (const char* mode : {"auto", "commit", "abort"}) {
    show(RunTxnCell(db, mode, batches, batch, dir_root + "_cell"));
  }

  if (tiny) {
    std::printf("\n--tiny smoke run: BENCH_wal.json left untouched\n");
    return 0;
  }
  WriteJson(results, "BENCH_wal.json");
  std::printf("\nwrote BENCH_wal.json\n");
  return 0;
}
