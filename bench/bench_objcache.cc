// The assembled-object cache tier, measured: skewed Get mixes over every
// storage model, cache enabled vs disabled, mem and mmap backends.
//
// The buffer pool already removes the *page I/O* cost of a hot working set;
// what remains on every Get is the transformation cost — region reads,
// flat-format decoding, per-attribute heap allocation — of re-assembling
// the NF² tuple. The object cache removes that second cost for hot
// objects, and this bench quantifies the effect:
//
//   * hot mix  — 90% of Gets hit a 10% hot set (the cache's home turf);
//   * cold mix — uniform Gets over a working set larger than the cache
//     budget (eviction-dominated; the honest lower bound).
//
// Every enabled row reports the assembly-hit ratio next to the page-hit
// ratio, the disabled row alongside it is the baseline, and the
// per-model speedup (enabled/disabled on the hot mix) is printed at the
// end — the tier pays for itself when that number clears 1, and on
// assembly-heavy models it should clear 2.
//
// Plain NSM has no by-ref access, so the store builds no cache for it; its
// rows run the same mixes through GetByKey (uncached there) and report an
// assembly-hit ratio of 0 — the model sweep stays complete without
// pretending NSM has an object cache to measure.
//
// Writes BENCH_objcache.json.
//
// Usage:
//   bench_objcache [--tiny] [--backend mem|mmap|both]
//                  [--min-hot-speedup X]
//
//   --tiny              CI-sized run (fewer objects, fewer ops)
//   --min-hot-speedup   fail unless the best hot-mix enabled/disabled
//                       speedup across models reaches X (off by default;
//                       timing gates belong on quiet machines)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "util/random.h"

namespace starfish {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchConfig {
  size_t n_objects = 400;
  uint64_t ops = 60000;
  int repetitions = 3;
};

struct RowResult {
  std::string name;
  std::string model;
  std::string backend;
  std::string mix;
  bool enabled = false;
  double ops_per_sec = 0;
  double ns_per_op = 0;
  double assembly_hit_ratio = 0;
  double page_hit_ratio = 0;
  uint64_t total_ops = 0;
};

void Fatal(const char* what, const Status& st) {
  std::fprintf(stderr, "bench_objcache: %s: %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

/// The skewed access pattern: 90% of draws land in the first
/// `hot_count` refs, the rest are uniform over everything.
size_t DrawIndex(Rng* rng, size_t n, size_t hot_count, bool hot_mix) {
  if (!hot_mix) return rng->Uniform(n);
  if (rng->Uniform(10) != 0) return rng->Uniform(hot_count);
  return rng->Uniform(n);
}

RowResult RunMix(const bench::BenchmarkDatabase& db, StorageModelKind model,
                 VolumeKind backend, bool enabled, bool hot_mix,
                 const BenchConfig& config, const std::string& dir) {
  StoreOptions options;
  options.model = model;
  options.backend = backend;
  options.path = dir;
  options.objcache.enabled = enabled;
  // Cold mix: budget ~1/4 of the working set (floor 64 KiB), so eviction
  // stays hot. Hot mix: budget comfortably above the hot set. The
  // serialized size understates the assembled footprint (heap overheads),
  // so the cold ratio lands below 1/4 — which is the point.
  const auto working_set = static_cast<size_t>(
      db.stats().avg_object_bytes * static_cast<double>(db.objects().size()));
  options.objcache.capacity_bytes =
      hot_mix ? (64ull << 20) : std::max<size_t>(working_set / 4, 64 << 10);
  auto store_or = ComplexObjectStore::Open(db.schema(), options);
  if (!store_or.ok()) Fatal("open store", store_or.status());
  auto store = std::move(store_or).value();
  for (const auto& object : db.objects()) {
    Status st = store->Put(object.ref, object.tuple);
    if (!st.ok()) Fatal("put", st);
  }

  const bool by_ref = store->model()->SupportsGetByRef();
  const size_t n = db.objects().size();
  const size_t hot_count = std::max<size_t>(n / 10, 1);
  const Projection all = Projection::All(*db.schema());

  double best_seconds = 1e30;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    store->InvalidateObjectCache();
    store->ResetStats();
    Rng rng(0x0BC5 + static_cast<uint64_t>(rep));
    const auto start = Clock::now();
    for (uint64_t i = 0; i < config.ops; ++i) {
      const size_t idx = DrawIndex(&rng, n, hot_count, hot_mix);
      const auto& object = db.objects()[idx];
      auto got = by_ref ? store->Get(object.ref)
                        : store->GetByKey(object.key, all);
      if (!got.ok()) Fatal("get", got.status());
    }
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (elapsed.count() < best_seconds) best_seconds = elapsed.count();
  }

  const ObjCacheStats cache = store->objcache_stats();
  const BufferStats buffer = store->stats().buffer;
  RowResult r;
  r.model = ToString(model);
  r.backend = ToString(backend);
  r.mix = hot_mix ? "hot" : "cold";
  r.enabled = enabled;
  std::string model_slug = r.model;
  for (char& c : model_slug) {
    if (c == '-' || c == '+') c = '_';
  }
  r.name = "objcache_" + model_slug + "_" + r.backend + "_" + r.mix + "_" +
           (enabled ? "on" : "off");
  r.total_ops = config.ops;
  r.ops_per_sec = static_cast<double>(config.ops) / best_seconds;
  r.ns_per_op = best_seconds * 1e9 / static_cast<double>(config.ops);
  r.assembly_hit_ratio = cache.HitRatio();
  r.page_hit_ratio =
      buffer.fixes == 0
          ? 0.0
          : static_cast<double>(buffer.hits) / static_cast<double>(buffer.fixes);
  return r;
}

void WriteJson(const std::vector<RowResult>& results, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_objcache: cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RowResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"model\": \"%s\", "
                 "\"backend\": \"%s\", \"mix\": \"%s\", \"enabled\": %s, "
                 "\"ops_per_sec\": %.0f, \"ns_per_op\": %.2f, "
                 "\"assembly_hit_ratio\": %.4f, \"page_hit_ratio\": %.4f, "
                 "\"total_ops\": %llu}%s\n",
                 r.name.c_str(), r.model.c_str(), r.backend.c_str(),
                 r.mix.c_str(), r.enabled ? "true" : "false", r.ops_per_sec,
                 r.ns_per_op, r.assembly_hit_ratio, r.page_hit_ratio,
                 static_cast<unsigned long long>(r.total_ops),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace starfish

int main(int argc, char** argv) {
  using namespace starfish;
  BenchConfig config;
  bool run_mem = true, run_mmap = true;
  double min_hot_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      config.n_objects = 64;
      config.ops = 4000;
      config.repetitions = 2;
    } else if (arg == "--backend" && i + 1 < argc) {
      const std::string backend = argv[++i];
      if (backend == "mem") {
        run_mmap = false;
      } else if (backend == "mmap") {
        run_mem = false;
      } else if (backend != "both") {
        std::fprintf(stderr, "unknown backend '%s' (mem|mmap|both)\n",
                     backend.c_str());
        return 2;
      }
    } else if (arg == "--min-hot-speedup" && i + 1 < argc) {
      min_hot_speedup = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--tiny] [--backend mem|mmap|both] "
                   "[--min-hot-speedup X]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::GeneratorConfig gen;
  gen.n_objects = config.n_objects;
  gen.seed = 4242;
  auto db_or = bench::BenchmarkDatabase::Generate(gen);
  if (!db_or.ok()) Fatal("generate database", db_or.status());
  const bench::BenchmarkDatabase db = std::move(db_or).value();

  std::printf("objects: %zu (avg %.0f bytes), ops/mix: %llu\n",
              db.objects().size(), db.stats().avg_object_bytes,
              static_cast<unsigned long long>(config.ops));
  std::printf("%-44s %12s %10s %9s %9s\n", "benchmark", "ops/sec", "ns/op",
              "asm-hit", "page-hit");

  const StorageModelKind kModels[] = {
      StorageModelKind::kDsm, StorageModelKind::kDasdbsDsm,
      StorageModelKind::kNsm, StorageModelKind::kNsmIndexed,
      StorageModelKind::kDasdbsNsm};
  std::vector<VolumeKind> backends;
  if (run_mem) backends.push_back(VolumeKind::kMem);
  if (run_mmap) backends.push_back(VolumeKind::kMmap);

  const std::string dir_base =
      (std::filesystem::temp_directory_path() /
       ("starfish_bench_objcache_" +
        std::to_string(static_cast<uint64_t>(
            Clock::now().time_since_epoch().count()))))
          .string();
  int dir_counter = 0;

  std::vector<RowResult> results;
  double best_speedup = 0.0;
  std::string best_row;
  for (StorageModelKind model : kModels) {
    for (VolumeKind backend : backends) {
      for (bool hot : {true, false}) {
        double per_enabled[2] = {0, 0};
        for (bool enabled : {false, true}) {
          std::string dir;
          if (backend == VolumeKind::kMmap) {
            dir = dir_base + "_" + std::to_string(dir_counter++);
            std::filesystem::remove_all(dir);
          }
          RowResult r =
              RunMix(db, model, backend, enabled, hot, config, dir);
          std::printf("%-44s %12.0f %10.2f %8.1f%% %8.1f%%\n",
                      r.name.c_str(), r.ops_per_sec, r.ns_per_op,
                      r.assembly_hit_ratio * 100, r.page_hit_ratio * 100);
          per_enabled[enabled ? 1 : 0] = r.ops_per_sec;
          results.push_back(std::move(r));
          if (!dir.empty()) std::filesystem::remove_all(dir);
        }
        if (hot && model != StorageModelKind::kNsm &&
            per_enabled[0] > 0.0) {
          const double speedup = per_enabled[1] / per_enabled[0];
          if (speedup > best_speedup) {
            best_speedup = speedup;
            best_row = results.back().name;
          }
        }
      }
    }
  }

  std::printf("\nbest hot-mix speedup (enabled/disabled): %.2fx (%s)\n",
              best_speedup, best_row.c_str());
  WriteJson(results, "BENCH_objcache.json");
  std::printf("wrote BENCH_objcache.json\n");

  if (min_hot_speedup > 0.0 && best_speedup < min_hot_speedup) {
    std::fprintf(stderr,
                 "bench_objcache: best hot-mix speedup %.2fx below required "
                 "%.2fx\n",
                 best_speedup, min_hot_speedup);
    return 1;
  }
  return 0;
}
