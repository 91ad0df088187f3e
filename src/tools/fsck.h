#pragma once

#include <string>
#include <vector>

#include "util/status.h"

/// \file fsck.h
/// Offline consistency verifier for persistent store/volume directories —
/// the library behind the `sf_fsck` tool.
///
/// RunFsck cross-checks the four layers of on-disk state against each
/// other, trusting nothing that is not checksummed:
///
///   1. the volume.meta allocator journal (replay, torn-tail detection,
///      geometry);
///   2. the extent files (existence, size, no orphans beyond the durable
///      page count);
///   3. the committed catalog generation (CURRENT resolution, per-file
///      CRC, structural parse of the segment page lists);
///   4. the model state inside the catalog (object tables, transformation
///      tables, page-pool heads, B+-tree roots);
///   5. the write-ahead log (wal.log framing scan: header CRC, per-record
///      CRCs, dense LSN sequence, torn-tail detection) and its agreement
///      with the committed catalog's checkpoint LSN.
///
/// Cross-checks: every cataloged page must be allocated, un-freed, and
/// carry a formatted page header whose segment id and page type agree with
/// the catalog; every model-state address (TID, pool head, tree root) must
/// point into a cataloged page; no page may belong to two segments; no
/// cataloged page may carry a page LSN at or beyond the log's next LSN
/// (WAL-before-data: a stamped page without a covering record is an
/// inconsistency, not a crash artifact).
///
/// Findings are split into
///   * errors   — inconsistencies; the directory does not describe one
///                coherent committed state;
///   * warnings — recoverable crash artifacts (uncommitted generation
///                files, orphaned-but-unreferenced pages, a torn journal
///                tail): exactly what a crash may leave and the next Open
///                cleans up.
/// A store that went through Open's recovery and a clean close reports
/// zero of either; the crash-matrix suite asserts exactly that.
///
/// fsck runs on the closed directory with plain file reads — no mmap, no
/// buffer pool, no model construction — so it can vet a store no binary
/// can open (wrong schema, unknown model) down to the model-state layer.
/// It is also backend-agnostic by construction: the mmap and O_DIRECT
/// backends write one shared on-disk format (volume.meta + extent_NNNNNN,
/// see volume_meta.h), so the same checks verify a directory regardless of
/// which access path produced it.

namespace starfish {

struct FsckOptions {
  /// Also collect per-segment info lines into FsckReport::info.
  bool verbose = false;
};

/// What RunFsck found.
struct FsckReport {
  std::string dir;

  // Volume layer.
  bool volume_found = false;
  uint64_t page_count = 0;   ///< durable allocator page count
  uint64_t live_pages = 0;   ///< allocated and not freed
  uint32_t page_size = 0;
  uint64_t extent_files = 0;

  // Catalog layer.
  bool catalog_found = false;
  uint64_t generation = 0;       ///< committed generation verified
  uint32_t segment_count = 0;
  uint64_t referenced_pages = 0; ///< distinct pages the catalog references
  uint64_t orphan_pages = 0;     ///< live but referenced by nothing

  // WAL layer.
  bool wal_found = false;
  bool wal_header_valid = false;
  bool wal_torn_tail = false;     ///< invalid bytes past the valid prefix
  uint64_t wal_base_lsn = 0;
  uint64_t wal_next_lsn = 0;      ///< first LSN no valid record carries
  uint64_t wal_records = 0;       ///< valid records scanned
  uint64_t wal_stale_records = 0; ///< records below the checkpoint LSN
  /// The committed catalog's WAL checkpoint LSN.
  uint64_t wal_checkpoint_lsn = 0;

  std::vector<std::string> errors;
  std::vector<std::string> warnings;
  std::vector<std::string> info;

  bool clean() const { return errors.empty(); }

  /// Human-readable multi-line report (what the CLI prints).
  std::string ToString() const;
};

/// Verifies the store/volume at `dir`. Only hard I/O failures (the
/// directory itself unreadable) surface as a non-OK status — every
/// inconsistency is a report entry, so one broken layer never hides the
/// findings of the others.
Result<FsckReport> RunFsck(const std::string& dir, FsckOptions options = {});

}  // namespace starfish
