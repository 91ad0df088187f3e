#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_manager.h"
#include "disk/volume.h"
#include "storage/segment.h"
#include "storage/tid.h"
#include "util/status.h"

/// \file storage_engine.h
/// Owns the volume, the buffer pool and the segment catalog — one "database
/// instance" in the sense of the paper's DASDBS testbed.
///
/// The disk backend is pluggable (StorageEngineOptions::backend): the
/// default in-memory arena, or a persistent backend rooted at
/// StorageEngineOptions::path — mmap (page-cache-backed) or direct
/// (O_DIRECT, every transfer a real device I/O). Modelled Equation-1 time
/// is a pure function of the I/O counters (LinearTimingModel::Cost over
/// stats().io).

namespace starfish {

/// Engine configuration: geometry + backend + buffering.
struct StorageEngineOptions {
  DiskOptions disk;
  BufferOptions buffer;

  /// Disk backend. kMmap/kDirect require `path`.
  VolumeKind backend = VolumeKind::kMem;

  /// Backing directory of the persistent backends (created if absent,
  /// reopened if it already holds a volume — mmap and direct share one
  /// on-disk format). Ignored by the mem backend.
  std::string path;

  /// Test seam: wraps the freshly created backend before the buffer pool
  /// attaches — how the crash-matrix tests interpose a FaultVolume. Null =
  /// no wrapping.
  std::function<std::unique_ptr<Volume>(std::unique_ptr<Volume>)>
      volume_decorator;
};

/// Combined counter snapshot used by the benchmark runner to delta-measure
/// individual queries.
struct EngineStats {
  IoStats io;
  BufferStats buffer;

  EngineStats Since(const EngineStats& earlier) const {
    return EngineStats{io.Since(earlier.io), buffer.Since(earlier.buffer)};
  }
};

/// The storage substrate: volume + buffer + segments.
class StorageEngine {
 public:
  /// Creates an engine, propagating backend construction failures (a
  /// missing mmap directory, geometry corruption, ...). Prefer this over
  /// the constructor whenever options select a non-default backend.
  static Result<std::unique_ptr<StorageEngine>> Open(
      StorageEngineOptions options = {});

  /// Convenience constructor for the infallible default backend. When the
  /// requested backend cannot be constructed (only possible for the
  /// persistent backends, e.g. an unwritable directory or a filesystem
  /// without O_DIRECT), the engine falls back to an in-memory volume and
  /// records the failure in init_status() — Open() is the
  /// error-propagating path.
  explicit StorageEngine(StorageEngineOptions options = {});

  /// OK unless the constructor had to fall back to the mem backend.
  const Status& init_status() const { return init_status_; }

  /// Creates a new, empty segment. Fails if the name exists.
  Result<Segment*> CreateSegment(const std::string& name);

  /// Returns the named segment, creating it when absent. This is how the
  /// storage models attach to their relations: fresh on first open,
  /// catalog-restored after a persistent reopen.
  Result<Segment*> OpenOrCreateSegment(const std::string& name);

  /// Looks up a segment by name (nullptr if absent).
  Segment* GetSegment(const std::string& name);

  /// All segments in creation order.
  std::vector<Segment*> segments();

  BufferManager* buffer() { return buffer_.get(); }
  Volume* disk() { return volume_.get(); }
  const Volume* disk() const { return volume_.get(); }

  /// Write-back of all dirty pages — the paper's "database disconnect".
  Status Flush() { return buffer_->FlushAll(); }

  /// Flushes and empties the buffer: the next query starts cold.
  Status DropCache() { return buffer_->DropAll(); }

  /// Snapshot of all counters.
  EngineStats stats() const;

  /// Zeroes all counters (page contents unaffected).
  void ResetStats();

  /// Serializes the segment catalog (names + page lists + hints) for the
  /// persistent-store catalog file.
  void SaveCatalog(std::string* out) const;

  /// Restores the segment catalog written by SaveCatalog, consuming it from
  /// `*in`. Existing segments with matching names are overwritten; the
  /// engine must otherwise be fresh.
  Status LoadCatalog(std::string_view* in);

  /// Every page of every segment (duplicates possible across calls, not
  /// within a segment) — the reference set a reopen reconciles the volume
  /// allocator against: catalog-referenced pages are live, everything else
  /// is reclaimable.
  std::vector<PageId> AllSegmentPages() const;

  /// Reopen-time recovery over shared slotted pages: deletes every record
  /// whose (page, slot) is not in `live` and recomputes the free-space
  /// hints from the actual page content. Data pages are written in place
  /// between checkpoints, so after a crash (or a checksum fallback to an
  /// older generation) a cataloged page can hold records NEWER than the
  /// committed catalog — phantoms that scans would surface and stale hints
  /// that would lie to inserts. The committed model state (`live`) is the
  /// source of truth; everything else on a slotted page is scrubbed.
  ///
  /// Slotted pages are the only page class needing reconstruction:
  /// complex-record pages are never shared across objects (an uncommitted
  /// record's pages are whole-page orphans that allocator reconciliation
  /// reclaims), pool pages carry change-attribute values whose in-place
  /// rewrite is the documented update caveat (README "Durability"), and no
  /// factory storage model persists B+-tree nodes (persistent_index is an
  /// ablation-only option) — revisit if that ever changes.
  Status ScrubSlottedRecords(const std::vector<Tid>& live);

 private:
  StorageEngineOptions options_;
  Status init_status_;
  std::unique_ptr<Volume> volume_;  ///< possibly a decorator
  std::unique_ptr<BufferManager> buffer_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::unordered_map<std::string, Segment*> by_name_;
};

}  // namespace starfish
