// Wall-clock microbenchmark of the disk->buffer hot path.
//
// Unlike the bench_table*/bench_fig* binaries, which reproduce the paper's
// *counted* I/O metrics, this bench measures how fast the simulator itself
// executes the hot loops: buffer fix-hit, fix-miss/evict, chained prefetch,
// sequential run prefetch into the buffer, and raw sequential
// ReadRun/WriteRun. It writes BENCH_hotpath.json (BENCH_hotpath_mmap.json
// for --backend mmap) to the working directory so successive PRs can track
// the perf trajectory.
//
// Usage:
//   bench_hotpath_buffer [--backend mem|mmap]
//                        [--compare REF.json] [--max-regress PCT]
//
//   --backend      which Volume implementation to drive (default mem;
//                  mmap uses throwaway volumes under $TMPDIR)
//   --compare      after measuring, diff ns/op against a reference JSON
//                  emitted by this binary and exit non-zero when any
//                  benchmark regressed by more than --max-regress percent
//                  (default 25) — the CI perf gate.
//
// Methodology: each loop is calibrated to a fixed iteration count, then run
// several times and the FASTEST run is reported (best-of-N rejects scheduler
// noise on shared machines; the minimum is the closest observable to the
// true cost of the loop).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "disk/volume.h"
#include "reference_rows.h"

namespace starfish {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepetitions = 7;
constexpr double kTargetRunSeconds = 0.12;

VolumeKind g_backend = VolumeKind::kMem;
int g_volume_counter = 0;

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

void Fatal(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_hotpath_buffer: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

ScopedVolume MakeDisk(DiskOptions options = {}) {
  ScopedVolume scoped;
  if (g_backend == VolumeKind::kMmap) {
    // A per-process token keeps parallel runs from clobbering each other.
    static const uint64_t token =
        static_cast<uint64_t>(Clock::now().time_since_epoch().count());
    scoped.dir = (std::filesystem::temp_directory_path() /
                  ("starfish_bench_mmap_" + std::to_string(token) + "_" +
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
  double ops_per_sec = 0;
  double ns_per_op = 0;
  uint64_t iterations = 0;
  std::string unit;  // what one "op" is
};

/// Calibrates the iteration count so one run of `body(iters)` lasts about
/// kTargetRunSeconds, then reports the fastest of kRepetitions runs.
/// `body` must perform exactly `iters` operations.
template <typename Body>
BenchResult Measure(const std::string& name, const std::string& unit,
                    Body&& body) {
  uint64_t iters = 1024;
  for (;;) {
    const auto start = Clock::now();
    body(iters);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (elapsed.count() >= kTargetRunSeconds / 4 || iters >= (1ull << 30)) {
      const double scale =
          elapsed.count() > 0 ? kTargetRunSeconds / elapsed.count() : 4.0;
      if (scale > 1.0) {
        iters = static_cast<uint64_t>(static_cast<double>(iters) * scale);
      }
      break;
    }
    iters *= 8;
  }

  double best_seconds = 1e30;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const auto start = Clock::now();
    body(iters);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (elapsed.count() < best_seconds) best_seconds = elapsed.count();
  }

  BenchResult r;
  r.name = name;
  r.unit = unit;
  r.iterations = iters;
  r.ops_per_sec = static_cast<double>(iters) / best_seconds;
  r.ns_per_op = best_seconds * 1e9 / static_cast<double>(iters);
  return r;
}

// One hot page fixed over and over: the pure lookup + pin + LRU-touch path
// (same shape as micro_substrate's BM_BufferFixHit).
BenchResult BenchFixHit() {
  auto disk = MakeDisk();
  const PageId id = disk->Allocate().value();
  BufferOptions options;
  options.frame_count = 128;
  BufferManager bm(&*disk, options);
  {
    auto g = bm.Fix(id);
    if (!g.ok()) Fatal("warm-up fix", g.status());
  }
  return Measure("buffer_fix_hit", "fix", [&](uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      auto g = bm.Fix(id);
      if (!g.ok()) Fatal("fix", g.status());
    }
  });
}

// A 64-page working set cycled in order: every hit reorders the LRU list.
BenchResult BenchFixHitCycle() {
  auto disk = MakeDisk();
  const PageId first = disk->AllocateRun(64).value();
  BufferOptions options;
  options.frame_count = 128;
  BufferManager bm(&*disk, options);
  for (uint32_t i = 0; i < 64; ++i) {
    auto g = bm.Fix(first + i);
    if (!g.ok()) Fatal("warm-up fix", g.status());
  }
  return Measure("buffer_fix_hit_cycle64", "fix", [&](uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      auto g = bm.Fix(first + static_cast<PageId>(i & 63));
      if (!g.ok()) Fatal("fix", g.status());
    }
  });
}

// Working set twice the pool: every fix misses, reads one page and evicts a
// victim (clean — the page is never dirtied).
BenchResult BenchFixMissEvict() {
  auto disk = MakeDisk();
  constexpr uint32_t kPool = 256;
  constexpr uint32_t kPages = 2 * kPool;
  const PageId first = disk->AllocateRun(kPages).value();
  BufferOptions options;
  options.frame_count = kPool;
  BufferManager bm(&*disk, options);
  return Measure("buffer_fix_miss_evict", "fix", [&](uint64_t iters) {
    for (uint64_t i = 0; i < iters; ++i) {
      auto g = bm.Fix(first + static_cast<PageId>(i % kPages));
      if (!g.ok()) Fatal("fix", g.status());
    }
  });
}

// One chained prefetch of a complex object's pages into a cold-ish buffer;
// DropAll between rounds so every prefetch really reads.
BenchResult BenchPrefetchChained() {
  auto disk = MakeDisk();
  constexpr uint32_t kObjectPages = 32;
  const PageId first = disk->AllocateRun(kObjectPages).value();
  BufferOptions options;
  options.frame_count = 64;
  BufferManager bm(&*disk, options);
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < kObjectPages; ++i) ids.push_back(first + i);
  return Measure("prefetch_chained", "page", [&](uint64_t iters) {
    for (uint64_t done = 0; done < iters; done += kObjectPages) {
      Status st = bm.Prefetch(ids, PrefetchMode::kChained);
      if (!st.ok()) Fatal("prefetch", st);
      st = bm.DropAll();
      if (!st.ok()) Fatal("drop", st);
    }
  });
}

// Sequential scan through the buffer: 64-page contiguous runs prefetched
// with kContiguousRuns (the segment-scan read path — disk ReadRun feeding
// buffer frames), dropped between rounds so every run really reads.
BenchResult BenchBufferReadRunSeq() {
  auto disk = MakeDisk();
  constexpr uint32_t kRun = 64;
  const PageId first = disk->AllocateRun(kRun).value();
  BufferOptions options;
  options.frame_count = 128;
  BufferManager bm(&*disk, options);
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < kRun; ++i) ids.push_back(first + i);
  return Measure("buffer_read_run_seq", "page", [&](uint64_t iters) {
    for (uint64_t done = 0; done < iters; done += kRun) {
      Status st = bm.Prefetch(ids, PrefetchMode::kContiguousRuns);
      if (!st.ok()) Fatal("prefetch", st);
      st = bm.DropAll();
      if (!st.ok()) Fatal("drop", st);
    }
  });
}

// Raw sequential disk read into a private buffer, 64 pages per call, over a
// 16 MiB volume. Dominated by memcpy/memory bandwidth by design — this is
// the floor the copying API cannot go below.
BenchResult BenchReadRunSequential() {
  auto disk = MakeDisk();
  constexpr uint32_t kRun = 64;
  constexpr uint32_t kVolumePages = 8192;  // 16 MiB at 2 KiB pages
  const PageId first = disk->AllocateRun(kVolumePages).value();
  std::vector<char> buf(static_cast<size_t>(kRun) * disk->page_size());
  return Measure("disk_read_run_seq", "page", [&](uint64_t iters) {
    PageId at = first;
    for (uint64_t done = 0; done < iters; done += kRun) {
      Status st = disk->ReadRun(at, kRun, buf.data());
      if (!st.ok()) Fatal("read", st);
      at += kRun;
      if (at + kRun > first + kVolumePages) at = first;
    }
  });
}

#ifndef STARFISH_BENCH_NO_ZEROCOPY
// The zero-copy read path: same accounting as ReadRun, no copy at all.
BenchResult BenchReadRunZeroCopy() {
  auto disk = MakeDisk();
  constexpr uint32_t kRun = 64;
  constexpr uint32_t kVolumePages = 8192;
  const PageId first = disk->AllocateRun(kVolumePages).value();
  std::vector<const char*> views;
  return Measure("disk_read_run_seq_zerocopy", "page", [&](uint64_t iters) {
    PageId at = first;
    for (uint64_t done = 0; done < iters; done += kRun) {
      Status st = disk->ReadRunZeroCopy(at, kRun, &views);
      if (!st.ok()) Fatal("read", st);
      at += kRun;
      if (at + kRun > first + kVolumePages) at = first;
    }
  });
}
#endif

// Raw sequential disk write, 64 pages per call.
BenchResult BenchWriteRunSequential() {
  auto disk = MakeDisk();
  constexpr uint32_t kRun = 64;
  constexpr uint32_t kVolumePages = 8192;
  const PageId first = disk->AllocateRun(kVolumePages).value();
  std::vector<char> buf(static_cast<size_t>(kRun) * disk->page_size(), 'w');
  return Measure("disk_write_run_seq", "page", [&](uint64_t iters) {
    PageId at = first;
    for (uint64_t done = 0; done < iters; done += kRun) {
      Status st = disk->WriteRun(at, kRun, buf.data());
      if (!st.ok()) Fatal("write", st);
      at += kRun;
      if (at + kRun > first + kVolumePages) at = first;
    }
  });
}

void WriteJson(const std::vector<BenchResult>& results, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_hotpath_buffer: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", "
                 "\"ops_per_sec\": %.0f, \"ns_per_op\": %.2f, "
                 "\"iterations\": %llu}%s\n",
                 r.name.c_str(), r.unit.c_str(), r.ops_per_sec, r.ns_per_op,
                 static_cast<unsigned long long>(r.iterations),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// The CI perf gate: compares ns/op against the reference, fails on
/// regressions beyond `max_regress_pct`. Benchmarks present on one side
/// only are reported but do not fail the gate — unless NO benchmark found
/// its reference row, which would make the gate pass vacuously.
int Compare(const std::vector<BenchResult>& results,
            const std::string& reference_path, double max_regress_pct) {
  const std::map<std::string, double> reference = bench::ReadReferenceRows(
      "bench_hotpath_buffer", reference_path, {"name"}, "ns_per_op");
  std::printf("\nperf gate vs %s (fail above +%.0f%% ns/op)\n",
              reference_path.c_str(), max_regress_pct);
  std::printf("%-26s %12s %12s %9s\n", "benchmark", "ref ns/op", "now ns/op",
              "delta");
  int failures = 0;
  size_t compared = 0;
  for (const BenchResult& r : results) {
    auto it = reference.find(r.name);
    if (it == reference.end()) {
      std::printf("%-26s %12s %12.2f %9s\n", r.name.c_str(), "-", r.ns_per_op,
                  "new");
      continue;
    }
    ++compared;
    const double delta_pct = (r.ns_per_op - it->second) / it->second * 100.0;
    const bool fail = delta_pct > max_regress_pct;
    std::printf("%-26s %12.2f %12.2f %+8.1f%%%s\n", r.name.c_str(),
                it->second, r.ns_per_op, delta_pct,
                fail ? "  <-- REGRESSION" : "");
    if (fail) ++failures;
  }
  for (const auto& [name, ns] : reference) {
    bool measured = false;
    for (const BenchResult& r : results) measured |= (r.name == name);
    if (!measured) {
      std::printf("%-26s %12.2f %12s %9s\n", name.c_str(), ns, "-", "gone");
    }
  }
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_hotpath_buffer: no benchmark matches a row of %s\n",
                 reference_path.c_str());
    return 1;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench_hotpath_buffer: %d benchmark(s) regressed more than "
                 "%.0f%%\n",
                 failures, max_regress_pct);
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace starfish

int main(int argc, char** argv) {
  using namespace starfish;
  std::string compare_path;
  double max_regress_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      const std::string backend = argv[++i];
      if (backend == "mem") {
        g_backend = VolumeKind::kMem;
      } else if (backend == "mmap") {
        g_backend = VolumeKind::kMmap;
      } else {
        std::fprintf(stderr, "unknown backend '%s' (mem|mmap)\n",
                     backend.c_str());
        return 2;
      }
    } else if (arg == "--compare" && i + 1 < argc) {
      compare_path = argv[++i];
    } else if (arg == "--max-regress" && i + 1 < argc) {
      max_regress_pct = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--backend mem|mmap] [--compare REF.json] "
                   "[--max-regress PCT]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<BenchResult> results;
  results.push_back(BenchFixHit());
  results.push_back(BenchFixHitCycle());
  results.push_back(BenchFixMissEvict());
  results.push_back(BenchPrefetchChained());
  results.push_back(BenchBufferReadRunSeq());
  results.push_back(BenchReadRunSequential());
#ifndef STARFISH_BENCH_NO_ZEROCOPY
  results.push_back(BenchReadRunZeroCopy());
#endif
  results.push_back(BenchWriteRunSequential());

  std::printf("backend: %s\n", ToString(g_backend).c_str());
  std::printf("%-26s %14s %12s   per-op unit\n", "benchmark", "ops/sec",
              "ns/op");
  for (const BenchResult& r : results) {
    std::printf("%-26s %14.0f %12.2f   %s\n", r.name.c_str(), r.ops_per_sec,
                r.ns_per_op, r.unit.c_str());
  }
  const char* json = g_backend == VolumeKind::kMem ? "BENCH_hotpath.json"
                                                   : "BENCH_hotpath_mmap.json";
  WriteJson(results, json);
  std::printf("\nwrote %s\n", json);

  if (!compare_path.empty()) {
    return Compare(results, compare_path, max_regress_pct);
  }
  return 0;
}
