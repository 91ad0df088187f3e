// Multi-threaded read-path benchmark of the sharded buffer pool.
//
// Measures hit-path and miss-path Fix throughput at 1/2/4/8 reader threads
// over one shared BufferManager in concurrent mode (sharded, per-shard
// mutexes), plus two single-thread overhead rows that isolate what the
// sharding refactor costs when nothing contends:
//
//   mt_fix_hit_cycle64_single_t1   default pool (1 shard, unlocked), the
//                                  exact loop shape of the hot-path bench's
//                                  buffer_fix_hit_cycle64 — diffable 1:1
//                                  against the committed hot-path reference
//                                  (the CI gate for refactor overhead).
//   mt_fix_hit_cycle64_locked_t1   same loop on a sharded pool: the row
//                                  shows the absolute cost of real mutexes
//                                  on a ~7 ns operation. An uncontended
//                                  lock/unlock pair is tens of ns, so this
//                                  is gated with its own generous bound —
//                                  it exists to catch *structural*
//                                  regressions (a global lock, O(shards)
//                                  work per fix), not to pretend locks are
//                                  free.
//
// --backend direct replaces the page-cache rows with device rows: 1/2/4/8
// threads each issue blocking chained 8-page ReadChained calls over their
// own io_uring rings. The aggregate pages/sec as threads grow is the
// per-thread-ring scaling.
// Skip-tolerant: on a filesystem without O_DIRECT the binary records
// "direct_skipped": true and exits 0.
//
// Writes BENCH_mt_read.json (BENCH_mt_read_mmap.json for --backend mmap,
// BENCH_mt_read_direct.json for --backend direct).
//
// Usage:
//   bench_mt_read [--backend mem|mmap|direct]
//                 [--compare-hotpath REF.json] [--max-regress PCT]
//                 [--max-locked-overhead PCT] [--min-speedup X]
//
//   --compare-hotpath      gate the single-thread rows against the hot-path
//                          reference's buffer_fix_hit_cycle64 entry:
//                          the unlocked row at --max-regress (default 25),
//                          the locked row at --max-locked-overhead
//                          (default 700).
//   --min-speedup          fail unless hit-path ops/sec (direct: pages/sec)
//                          at 8 threads is at least X times the 1-thread
//                          row. Off by default:
//                          speedup is a property of the machine's core
//                          count, so CI asserts it only where cores exist.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/generator.h"
#include "buffer/buffer_manager.h"
#include "core/complex_object_store.h"
#include "disk/direct_volume.h"
#include "disk/volume.h"
#include "reference_rows.h"
#include "util/aligned_buffer.h"
#include "util/random.h"

namespace starfish {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 5;
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};
constexpr uint32_t kShards = 64;

VolumeKind g_backend = VolumeKind::kMem;
int g_volume_counter = 0;

void Fatal(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_mt_read: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

/// A fresh volume of the selected backend; mmap volumes are throwaway
/// directories removed by the wrapper's destructor.
struct ScopedVolume {
  std::unique_ptr<Volume> volume;
  std::string dir;

  ScopedVolume() = default;
  ScopedVolume(ScopedVolume&& other) noexcept
      : volume(std::move(other.volume)), dir(std::move(other.dir)) {
    other.dir.clear();
  }
  ScopedVolume& operator=(ScopedVolume&&) = delete;

  ~ScopedVolume() {
    volume.reset();  // unmap before removing the files
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  Volume* operator->() { return volume.get(); }
  Volume& operator*() { return *volume; }
};

ScopedVolume MakeDisk(DiskOptions options = {}) {
  ScopedVolume scoped;
  if (g_backend == VolumeKind::kMmap) {
    static const uint64_t token =
        static_cast<uint64_t>(Clock::now().time_since_epoch().count());
    scoped.dir = (std::filesystem::temp_directory_path() /
                  ("starfish_bench_mt_" + std::to_string(token) + "_" +
                   std::to_string(g_volume_counter++)))
                     .string();
    std::filesystem::remove_all(scoped.dir);
  }
  auto volume_or = CreateVolume(g_backend, options, scoped.dir);
  if (!volume_or.ok()) Fatal("create volume", volume_or.status());
  scoped.volume = std::move(volume_or).value();
  return scoped;
}

struct BenchResult {
  std::string name;
  uint32_t threads = 1;
  double ops_per_sec = 0;  ///< aggregate over all threads
  double ns_per_op = 0;    ///< wall ns per op (aggregate)
  uint64_t total_ops = 0;
  /// Object-cache hit ratio of the run — meaningful for the store-level
  /// mt_get_objcache rows, 0 for the page-level rows (no cache in play).
  double assembly_hit_ratio = 0;
};

/// Runs `body(thread_index)` on `threads` threads behind a start barrier and
/// returns the wall seconds of the slowest repetition's best run.
template <typename Body>
double TimedThreads(uint32_t threads, Body&& body) {
  double best_seconds = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    std::atomic<uint32_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        body(t);
      });
    }
    while (ready.load() != threads) {
    }
    const auto start = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (elapsed.count() < best_seconds) best_seconds = elapsed.count();
  }
  return best_seconds;
}

// Hit path: a shared working set fully resident in a sharded pool; every
// Fix is a hit. Near-linear scaling = shard mutexes don't serialize reads.
BenchResult BenchHit(uint32_t threads) {
  constexpr uint32_t kPages = 1024;
  constexpr uint64_t kOpsPerThread = 1 << 19;
  auto disk = MakeDisk();
  const PageId first = disk->AllocateRun(kPages).value();
  BufferOptions options;
  options.frame_count = 2 * kPages;  // no eviction on the hit path
  options.shard_count = kShards;
  BufferManager bm(&*disk, options);
  for (uint32_t i = 0; i < kPages; ++i) {
    auto g = bm.Fix(first + i);
    if (!g.ok()) Fatal("warm-up fix", g.status());
  }

  const double seconds = TimedThreads(threads, [&](uint32_t t) {
    // Per-thread deterministic RNG: threads walk the shared working set in
    // different reproducible orders.
    Rng rng(0x1234567 + t * 0x9E3779B9ull);
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      const PageId id = first + static_cast<PageId>(rng.Uniform(kPages));
      auto g = bm.Fix(id);
      if (!g.ok()) Fatal("fix", g.status());
    }
  });

  BenchResult r;
  r.name = "mt_fix_hit_t" + std::to_string(threads);
  r.threads = threads;
  r.total_ops = kOpsPerThread * threads;
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(r.total_ops);
  return r;
}

// Miss path: the working set is many times the pool, so nearly every Fix
// reads a page from the volume and evicts a victim, all concurrently.
BenchResult BenchMiss(uint32_t threads) {
  constexpr uint32_t kPages = 8192;
  constexpr uint32_t kFrames = 512;
  constexpr uint64_t kOpsPerThread = 1 << 15;
  auto disk = MakeDisk();
  const PageId first = disk->AllocateRun(kPages).value();
  BufferOptions options;
  options.frame_count = kFrames;
  options.shard_count = kShards;
  BufferManager bm(&*disk, options);

  const double seconds = TimedThreads(threads, [&](uint32_t t) {
    Rng rng(0xFEDCBA9 + t * 0x9E3779B9ull);
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      const PageId id = first + static_cast<PageId>(rng.Uniform(kPages));
      auto g = bm.Fix(id);
      if (!g.ok()) Fatal("fix", g.status());
    }
  });

  BenchResult r;
  r.name = "mt_fix_miss_t" + std::to_string(threads);
  r.threads = threads;
  r.total_ops = kOpsPerThread * threads;
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(r.total_ops);
  return r;
}

// Single-thread overhead rows: the exact loop of the hot-path bench's
// buffer_fix_hit_cycle64, on (a) the default unlocked pool — sharding
// refactor overhead, gated tightly — and (b) a sharded locked pool — mutex
// cost, gated loosely.
BenchResult BenchCycle64SingleThread(bool locked) {
  constexpr uint64_t kOps = 1 << 21;
  auto disk = MakeDisk();
  const PageId first = disk->AllocateRun(64).value();
  BufferOptions options;
  options.frame_count = 128;
  if (locked) options.shard_count = kShards;
  BufferManager bm(&*disk, options);
  for (uint32_t i = 0; i < 64; ++i) {
    auto g = bm.Fix(first + i);
    if (!g.ok()) Fatal("warm-up fix", g.status());
  }

  const double seconds = TimedThreads(1, [&](uint32_t) {
    for (uint64_t i = 0; i < kOps; ++i) {
      auto g = bm.Fix(first + static_cast<PageId>(i & 63));
      if (!g.ok()) Fatal("fix", g.status());
    }
  });

  BenchResult r;
  r.name = locked ? "mt_fix_hit_cycle64_locked_t1"
                  : "mt_fix_hit_cycle64_single_t1";
  r.threads = 1;
  r.total_ops = kOps;
  r.ops_per_sec = static_cast<double>(kOps) / seconds;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(kOps);
  return r;
}

// Store-level rows: skewed Gets (90% on a 10% hot set) through concurrent
// ReadSessions over one sharded-buffer store with the assembled-object
// cache on — the tier the page-level rows sit underneath. Scaling here
// means the object-cache shards don't serialize readers; the JSON row
// carries the run's assembly-hit ratio next to the page-level rows'
// numbers.
BenchResult BenchStoreGet(uint32_t threads,
                          const bench::BenchmarkDatabase& db) {
  constexpr uint64_t kOpsPerThread = 1 << 15;
  std::string dir;
  if (g_backend == VolumeKind::kMmap) {
    dir = (std::filesystem::temp_directory_path() /
           ("starfish_bench_mt_store_" + std::to_string(g_volume_counter++)))
              .string();
    std::filesystem::remove_all(dir);
  }
  StoreOptions options;
  options.model = StorageModelKind::kDasdbsNsm;
  options.backend = g_backend;
  options.path = dir;
  options.buffer_shards = kShards;
  options.objcache.enabled = true;
  auto store_or = ComplexObjectStore::Open(db.schema(), options);
  if (!store_or.ok()) Fatal("open store", store_or.status());
  auto store = std::move(store_or).value();
  for (const auto& object : db.objects()) {
    Status st = store->Put(object.ref, object.tuple);
    if (!st.ok()) Fatal("put", st);
  }
  const size_t n = db.objects().size();
  const size_t hot = n / 10 == 0 ? 1 : n / 10;
  store->ResetStats();

  const double seconds = TimedThreads(threads, [&](uint32_t t) {
    ReadSession session = store->OpenReadSession();
    Rng rng(0x57042E + t * 0x9E3779B9ull);
    for (uint64_t i = 0; i < kOpsPerThread; ++i) {
      const size_t idx = rng.Uniform(10) != 0
                             ? static_cast<size_t>(rng.Uniform(hot))
                             : static_cast<size_t>(rng.Uniform(n));
      auto got = session.Get(db.objects()[idx].ref);
      if (!got.ok()) Fatal("get", got.status());
    }
  });

  BenchResult r;
  r.name = "mt_get_objcache_t" + std::to_string(threads);
  r.threads = threads;
  r.total_ops = kOpsPerThread * threads;
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(r.total_ops);
  r.assembly_hit_ratio = store->objcache_stats().HitRatio();
  store.reset();  // unmap before removing the directory
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return r;
}

// Direct-backend ring rows: raw device read throughput, no buffer pool in
// the way. Each thread issues blocking chained 8-page reads (the DASDBS
// fetch shape) over its own ring.
BenchResult BenchDirectChained(uint32_t threads, const std::string& dir) {
  constexpr uint32_t kObjPages = 8;
  constexpr uint32_t kBatchesPerThread = 512;  // 16 MiB read per thread

  auto disk_or = DirectVolume::Open(dir, DiskOptions{4096, 4u << 20});
  if (!disk_or.ok()) Fatal("reopen direct volume", disk_or.status());
  auto disk = std::move(disk_or).value();
  const uint32_t page = disk->page_size();
  const uint64_t n_objects = disk->page_count() / kObjPages;

  const double seconds = TimedThreads(threads, [&](uint32_t t) {
    AlignedBuffer staging;
    if (!staging.Reserve(
            static_cast<size_t>(kObjPages) * page,
            std::max<size_t>(4096, disk->io_buffer_alignment()))) {
      Fatal("staging", Status::ResourceExhausted("staging alloc"));
    }
    disk->RegisterIoMemory(staging.data(),
                           static_cast<size_t>(kObjPages) * page);
    Rng rng(0xD10C0DE + t * 0x9E3779B9ull);
    std::vector<PageId> ids(kObjPages);
    std::vector<char*> outs(kObjPages);
    for (uint32_t p = 0; p < kObjPages; ++p) {
      outs[p] = staging.data() + static_cast<size_t>(p) * page;
    }
    for (uint32_t b = 0; b < kBatchesPerThread; ++b) {
      const PageId root =
          static_cast<PageId>(rng.Uniform(n_objects) * kObjPages);
      for (uint32_t p = 0; p < kObjPages; ++p) ids[p] = root + p;
      if (auto st = disk->ReadChained(ids, outs); !st.ok()) {
        Fatal("read", st);
      }
    }
    disk->UnregisterIoMemory(staging.data());
  });

  BenchResult r;
  r.name = "mt_dio_chained_perthread_t" + std::to_string(threads);
  r.threads = threads;
  r.total_ops = static_cast<uint64_t>(threads) * kBatchesPerThread * kObjPages;
  r.ops_per_sec = static_cast<double>(r.total_ops) / seconds;  // pages/sec
  r.ns_per_op = seconds * 1e9 / static_cast<double>(r.total_ops);
  return r;
}

void WriteJson(const std::vector<BenchResult>& results, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_mt_read: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    // ns_per_op stays on the row's line: the CI gate and
    // --compare-hotpath parse rows by line.
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"threads\": %u, "
                 "\"ops_per_sec\": %.0f, \"ns_per_op\": %.2f, "
                 "\"assembly_hit_ratio\": %.4f, \"total_ops\": %llu}%s\n",
                 r.name.c_str(), r.threads, r.ops_per_sec, r.ns_per_op,
                 r.assembly_hit_ratio,
                 static_cast<unsigned long long>(r.total_ops),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

const BenchResult& FindRow(const std::vector<BenchResult>& results,
                           const std::string& name) {
  for (const BenchResult& r : results) {
    if (r.name == name) return r;
  }
  std::fprintf(stderr, "bench_mt_read: missing own row %s\n", name.c_str());
  std::exit(1);
}

}  // namespace
}  // namespace starfish

int main(int argc, char** argv) {
  using namespace starfish;
  std::string compare_hotpath;
  double max_regress_pct = 25.0;
  // Generous: an uncontended pthread lock/unlock pair alone runs 20-40 ns
  // on small VMs against a ~6-8 ns reference row. The bound exists to catch
  // an accidental global lock or a lock on the unlocked path, which shows
  // up at far more than one mutex round-trip per fix.
  double max_locked_overhead_pct = 700.0;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      const std::string backend = argv[++i];
      if (backend == "mem") {
        g_backend = VolumeKind::kMem;
      } else if (backend == "mmap") {
        g_backend = VolumeKind::kMmap;
      } else if (backend == "direct") {
        g_backend = VolumeKind::kDirect;
      } else {
        std::fprintf(stderr, "unknown backend '%s' (mem|mmap|direct)\n",
                     backend.c_str());
        return 2;
      }
    } else if (arg == "--compare-hotpath" && i + 1 < argc) {
      compare_hotpath = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress_pct = std::atof(argv[++i]);
    } else if (arg == "--max-locked-overhead" && i + 1 < argc) {
      max_locked_overhead_pct = std::atof(argv[++i]);
    } else if (arg == "--min-speedup" && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--backend mem|mmap] [--compare-hotpath "
                   "REF.json] [--max-regress PCT] [--max-locked-overhead "
                   "PCT] [--min-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("backend: %s, hardware threads: %u, pool shards: %u\n",
              ToString(g_backend).c_str(),
              std::thread::hardware_concurrency(), kShards);

  if (g_backend == VolumeKind::kDirect) {
    // Device rows only: per-thread rings, raw blocking ReadChained calls,
    // no buffer pool. The page-cache rows of the other backends would just
    // measure memcpy.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("starfish_bench_mt_dio_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    constexpr uint32_t kPages = 16384;  // 64 MiB at 4 KiB pages
    {
      auto disk_or = DirectVolume::Open(dir, DiskOptions{4096, 4u << 20});
      if (!disk_or.ok()) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        if (disk_or.status().IsNotSupported()) {
          std::printf("direct backend skipped: %s\n",
                      disk_or.status().ToString().c_str());
          std::ofstream out("BENCH_mt_read_direct.json");
          out << "{\n  \"benchmarks\": [],\n  \"direct_skipped\": true\n}\n";
          std::printf("wrote BENCH_mt_read_direct.json\n");
          return 0;
        }
        Fatal("open direct volume", disk_or.status());
      }
      auto disk = std::move(disk_or).value();
      if (auto id = disk->AllocateRun(kPages); !id.ok()) {
        Fatal("allocate", id.status());
      }
      std::vector<char> chunk(64 * 4096);
      for (uint32_t first = 0; first < kPages; first += 64) {
        std::memset(chunk.data(), static_cast<int>('A' + first % 23),
                    chunk.size());
        if (auto st = disk->WriteRun(first, 64, chunk.data()); !st.ok()) {
          Fatal("load", st);
        }
      }
      if (auto st = disk->Sync(); !st.ok()) Fatal("sync", st);
      std::printf("ring model: %s\n",
                  disk->io_uring_active() ? "io_uring" : "pread fallback");
    }

    std::vector<BenchResult> rows;
    for (uint32_t t : kThreadCounts) {
      rows.push_back(BenchDirectChained(t, dir));
    }
    {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }

    std::printf("%-30s %8s %14s %12s\n", "benchmark", "threads",
                "pages/sec", "ns/page");
    for (const BenchResult& r : rows) {
      std::printf("%-30s %8u %14.0f %12.2f\n", r.name.c_str(), r.threads,
                  r.ops_per_sec, r.ns_per_op);
    }
    const double perthread1 =
        FindRow(rows, "mt_dio_chained_perthread_t1").ops_per_sec;
    const double perthread8 =
        FindRow(rows, "mt_dio_chained_perthread_t8").ops_per_sec;
    std::printf("\nper-thread-ring speedup t8/t1: %.2fx\n",
                perthread8 / perthread1);
    WriteJson(rows, "BENCH_mt_read_direct.json");
    std::printf("wrote BENCH_mt_read_direct.json\n");
    if (min_speedup > 0.0 && perthread8 / perthread1 < min_speedup) {
      std::fprintf(stderr,
                   "bench_mt_read: per-thread-ring speedup %.2fx below "
                   "required %.2fx\n",
                   perthread8 / perthread1, min_speedup);
      return 1;
    }
    return 0;
  }

  std::vector<BenchResult> results;
  results.push_back(BenchCycle64SingleThread(/*locked=*/false));
  results.push_back(BenchCycle64SingleThread(/*locked=*/true));
  for (uint32_t t : kThreadCounts) results.push_back(BenchHit(t));
  for (uint32_t t : kThreadCounts) results.push_back(BenchMiss(t));
  {
    bench::GeneratorConfig gen;
    gen.n_objects = 256;
    gen.seed = 4242;
    auto db_or = bench::BenchmarkDatabase::Generate(gen);
    if (!db_or.ok()) Fatal("generate database", db_or.status());
    const bench::BenchmarkDatabase db = std::move(db_or).value();
    for (uint32_t t : kThreadCounts) results.push_back(BenchStoreGet(t, db));
  }

  std::printf("%-30s %8s %14s %12s %9s\n", "benchmark", "threads", "ops/sec",
              "ns/op", "asm-hit");
  for (const BenchResult& r : results) {
    std::printf("%-30s %8u %14.0f %12.2f %8.1f%%\n", r.name.c_str(),
                r.threads, r.ops_per_sec, r.ns_per_op,
                r.assembly_hit_ratio * 100);
  }

  const double hit1 = FindRow(results, "mt_fix_hit_t1").ops_per_sec;
  const double hit8 = FindRow(results, "mt_fix_hit_t8").ops_per_sec;
  const double miss1 = FindRow(results, "mt_fix_miss_t1").ops_per_sec;
  const double miss8 = FindRow(results, "mt_fix_miss_t8").ops_per_sec;
  std::printf("\nhit-path speedup  t8/t1: %.2fx\n", hit8 / hit1);
  std::printf("miss-path speedup t8/t1: %.2fx\n", miss8 / miss1);
  if (std::thread::hardware_concurrency() < 4) {
    std::printf(
        "note: %u hardware thread(s) — parallel speedup is bounded by the "
        "machine, not the pool.\n",
        std::thread::hardware_concurrency());
  }

  const char* json = g_backend == VolumeKind::kMem ? "BENCH_mt_read.json"
                                                   : "BENCH_mt_read_mmap.json";
  WriteJson(results, json);
  std::printf("\nwrote %s\n", json);

  int failures = 0;
  if (!compare_hotpath.empty()) {
    const std::map<std::string, double> reference = bench::ReadReferenceRows(
        "bench_mt_read", compare_hotpath, {"name"}, "ns_per_op");
    const auto ref_row = reference.find("buffer_fix_hit_cycle64");
    if (ref_row == reference.end()) {
      std::fprintf(stderr, "bench_mt_read: no 'buffer_fix_hit_cycle64' row "
                   "in %s\n", compare_hotpath.c_str());
      return 1;
    }
    const double ref = ref_row->second;
    struct GateRow {
      const char* name;
      double bound_pct;
    } gates[] = {
        {"mt_fix_hit_cycle64_single_t1", max_regress_pct},
        {"mt_fix_hit_cycle64_locked_t1", max_locked_overhead_pct},
    };
    std::printf("\n1-thread overhead gate vs %s (buffer_fix_hit_cycle64 = "
                "%.2f ns/op)\n",
                compare_hotpath.c_str(), ref);
    for (const GateRow& gate : gates) {
      const BenchResult& row = FindRow(results, gate.name);
      const double delta_pct = (row.ns_per_op - ref) / ref * 100.0;
      const bool fail = delta_pct > gate.bound_pct;
      std::printf("%-30s %12.2f %+8.1f%% (bound +%.0f%%)%s\n",
                  gate.name, row.ns_per_op, delta_pct, gate.bound_pct,
                  fail ? "  <-- REGRESSION" : "");
      if (fail) ++failures;
    }
  }
  if (min_speedup > 0.0 && hit8 / hit1 < min_speedup) {
    std::fprintf(stderr,
                 "bench_mt_read: hit-path speedup %.2fx below required "
                 "%.2fx\n",
                 hit8 / hit1, min_speedup);
    ++failures;
  }
  return failures > 0 ? 1 : 0;
}
