// Persistent volumes and modelled I/O time: the pluggable Volume backends.
//
//   $ ./build/example_persistent_volume [dir] [mmap|direct]
//
// Run it twice with the same directory: the first run creates a persistent
// store and loads it; the second run finds the data already there and skips
// the load. The backend argument picks the access path — mmap (page-cache
// backed, the default) or direct (O_DIRECT: every page transfer is a real
// device I/O). Both write the SAME on-disk format, so you can even load
// with one and reopen with the other. The I/O meter prints the call/page
// counts next to the milliseconds Equation 1 charges for them — with the
// direct backend those modelled milliseconds are finally comparable against
// what the hardware actually did.
//
// Exit codes: 0 success, 1 failure, 3 skipped (the filesystem rejects
// O_DIRECT — tmpfs/overlayfs — and --backend=direct was requested; CI
// treats 3 as a graceful skip).

#include <cstdio>
#include <cstring>
#include <string>

#include "core/complex_object_store.h"
#include "disk/direct_volume.h"
#include "tools/fsck.h"

using namespace starfish;  // NOLINT — example brevity

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : "/tmp/starfish_persistent_example";
  const std::string backend_name = argc > 2 ? argv[2] : "mmap";
  VolumeKind backend;
  if (backend_name == "mmap") {
    backend = VolumeKind::kMmap;
  } else if (backend_name == "direct") {
    backend = VolumeKind::kDirect;
  } else {
    std::fprintf(stderr, "usage: %s [dir] [mmap|direct]\n", argv[0]);
    return 1;
  }
  if (backend == VolumeKind::kDirect && !DirectVolume::SupportedAt(dir)) {
    std::printf("this filesystem has no O_DIRECT support (tmpfs/overlayfs?) "
                "— skipping the direct-backend run.\n");
    return 3;
  }

  auto item = SchemaBuilder("Measurement")
                  .AddInt32("SensorId")
                  .AddString("Payload")
                  .Build();
  auto reading = SchemaBuilder("Reading")
                     .AddInt32("ReadingId")  // the object key (attribute 0)
                     .AddString("Station")
                     .AddRelation("Measurements", item)
                     .Build();

  // The backend is a knob: kMem (default) simulates, kMmap persists via the
  // page cache, kDirect persists via real device I/O.
  StoreOptions options;
  options.model = StorageModelKind::kDasdbsNsm;
  options.backend = backend;
  options.path = dir;
  // Price the I/O counters with Equation 1, using the mechanical
  // parameters of a period drive.
  options.timing = PhysicalTimingModel{}.ToLinear();

  auto store_or = ComplexObjectStore::Open(reading, options);
  if (!store_or.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 store_or.status().ToString().c_str());
    return 1;
  }
  auto& store = *store_or.value();

  if (store.opened_from_fallback()) {
    std::printf("NOTE: the newest catalog generation was damaged; recovered "
                "the previous committed one.\n");
  }
  if (store.model()->object_count() == 0) {
    std::printf("fresh store at %s (%s backend) — loading 500 readings...\n",
                dir.c_str(), backend_name.c_str());
    for (int i = 0; i < 500; ++i) {
      Tuple obj{{Value::Int32(i), Value::Str("station-" + std::to_string(i % 7)),
                 Value::Relation({
                     Tuple{{Value::Int32(1), Value::Str("t=21.5C")}},
                     Tuple{{Value::Int32(2), Value::Str("rh=40%")}},
                 })}};
      if (auto st = store.Put(i, obj); !st.ok()) {
        std::fprintf(stderr, "put: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (auto st = store.Flush(); !st.ok()) {  // durable checkpoint
      std::fprintf(stderr, "flush: %s\n", st.ToString().c_str());
      return 1;
    }
    // The checkpoint is crash-consistent: the volume was synced first, the
    // catalog went to a fresh generation file, and the atomic CURRENT
    // repoint committed it. A power loss at ANY point leaves either this
    // checkpoint or the previous one — never a half-written store.
    std::printf("loaded; committed catalog generation %llu.\n",
                static_cast<unsigned long long>(store.catalog_generation()));
    std::printf("Run me again: the data will still be there.\n\n");
  } else {
    std::printf("reopened store at %s (%s backend) — %llu readings survived "
                "the last process (catalog generation %llu).\n\n",
                dir.c_str(), backend_name.c_str(),
                static_cast<unsigned long long>(store.model()->object_count()),
                static_cast<unsigned long long>(store.catalog_generation()));
  }

  // Start cold so the meter shows real volume traffic in both runs.
  (void)store.engine()->DropCache();
  store.ResetStats();
  auto back = store.GetByKey(42, Projection::All(*reading));
  if (!back.ok()) {
    std::fprintf(stderr, "get: %s\n", back.status().ToString().c_str());
    return 1;
  }
  std::printf("reading 42: %s\n\n", TupleToString(back.value()).c_str());

  const EngineStats stats = store.stats();
  std::printf("I/O meter:  %s\n", stats.io.ToString().c_str());
  std::printf("modelled:   %.2f ms (Eq. 1 over the counters)\n\n",
              store.EstimatedIoMillis());

  // Vet the on-disk state with the offline checker (also available as the
  // standalone `sf_fsck <dir>` binary). fsck does not care which backend
  // wrote the directory — mmap and direct share the format it verifies.
  auto report = RunFsck(dir);
  if (!report.ok()) {
    std::fprintf(stderr, "fsck: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report.value().ToString().c_str());
  return report.value().clean() ? 0 : 1;
}
