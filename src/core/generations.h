#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file generations.h
/// Shadow catalog generations: file naming, framing and the CURRENT commit
/// pointer of a persistent store's checkpoint protocol.
///
/// A persistent store directory holds
///
///     catalog.<gen>.sf    one immutable catalog image per checkpoint
///     CURRENT             "catalog.<gen>.sf\n" — the committed generation
///     volume.meta         allocator journal (volume_meta.h)
///     extent_NNNNNN       page images
///
/// A checkpoint NEVER overwrites the live catalog: it writes the next
/// generation to a fresh file (fsync'd), then atomically repoints CURRENT
/// (fsync'd file + directory). The CURRENT rename is the one and only
/// commit point; a crash anywhere before it leaves the previous generation
/// committed, a crash after it leaves the new one. Readers resolve CURRENT
/// and may fall back to the next-older on-disk generation when the live
/// file fails its checksum (bit rot, torn hardware write).
///
/// Catalog file framing (little-endian):
///
///   u32 magic 'SFCT', u32 version (3), u64 generation, payload,
///   u32 crc32 over everything before it — the payload carries the WAL
///   checkpoint LSN (see wal/wal_format.h)
///
/// Older frame versions (the pre-WAL v2 frame and the unchecksummed v1
/// "catalog.sf" of pre-generation stores) are retired: a v1/v2 frame fails
/// validation like any unsupported version, and a directory holding only
/// "catalog.sf" is refused as NotSupported instead of being treated as
/// fresh (which would reclaim every page of the old store).
///
/// The payload (model kind, schema fingerprint, segment page lists, model
/// state) is owned by ComplexObjectStore; this module frames and checksums
/// it, so the store and the offline verifier (sf_fsck) agree byte-for-byte
/// on what a valid generation is.
///
/// This module is deliberately free of store types: sf_fsck links it
/// without dragging in the model layer.

namespace starfish {

/// `<dir>/catalog.<gen>.sf`
std::string CatalogGenerationPath(const std::string& dir, uint64_t gen);

/// `<dir>/CURRENT`
std::string CurrentPath(const std::string& dir);

/// Reads CURRENT. `*found` false when absent (not an error: nothing was
/// ever committed). Corruption when present but unparseable — CURRENT is
/// written atomically, so garbage is damage, not a crash artifact.
Result<uint64_t> ReadCurrentGeneration(const std::string& dir, bool* found);

/// Atomically repoints CURRENT at `gen` (fsync'd tmp + rename + directory
/// fsync): THE commit point of a checkpoint.
Status CommitCurrentGeneration(const std::string& dir, uint64_t gen);

/// Generation numbers of all catalog.<gen>.sf files in `dir`, ascending.
std::vector<uint64_t> ListCatalogGenerations(const std::string& dir);

/// Best-effort removal of generation files whose number is not in `keep`.
void RemoveCatalogGenerationsExcept(const std::string& dir,
                                    const std::vector<uint64_t>& keep);

/// A validated, de-framed catalog file.
struct CatalogFile {
  uint64_t generation = 0;
  std::string payload;  ///< store-owned bytes (model kind onward)
};

/// Reads and validates one catalog file: magic, version, and the
/// checksum over the whole frame. Corruption — not a partial result — when
/// anything is off; absence is NotFound. The caller decides whether
/// Corruption means "fall back a generation" or "fail the open".
Result<CatalogFile> ReadCatalogFile(const std::string& path);

/// Frames `payload` as a generation file (magic, version, generation,
/// payload, crc32).
std::string EncodeCatalogFile(uint64_t generation, std::string_view payload);

/// Outcome of resolving the committed catalog of a directory.
struct ResolvedCatalog {
  bool any_committed = false;  ///< CURRENT existed
  uint64_t current = 0;        ///< the generation CURRENT names
  uint64_t loaded = 0;         ///< the generation that validated
  bool fallback = false;       ///< loaded != current
  CatalogFile file;            ///< the validated generation's payload
  /// Generation numbers of all on-disk catalog files, ascending.
  std::vector<uint64_t> generations;
  /// First number a new commit may use: past everything ever seen, so an
  /// aborted checkpoint's leftover can never collide with a later commit.
  uint64_t next_generation = 1;
  /// One line per candidate that failed validation (checksum mismatch,
  /// generation-number mismatch), in the order they were tried.
  std::vector<std::string> rejected;
};

/// THE resolution algorithm — shared by ComplexObjectStore::Open and
/// sf_fsck so recovery and verification can never disagree. CURRENT names
/// the live generation; when its file fails validation, on-disk
/// generations below it are tried newest-first (generations above CURRENT
/// were never committed and are never candidates). Returns OK with
/// `any_committed == false` when CURRENT is absent (nothing was ever
/// committed: a fresh directory), NotSupported when CURRENT is absent but
/// the retired pre-generation "catalog.sf" is present, Corruption when
/// CURRENT is unparseable or present with no loadable generation. `out` is filled as far as resolution got either
/// way, so a verifier can report the rejected candidates.
Status ResolveCommittedCatalog(const std::string& dir, ResolvedCatalog* out);

}  // namespace starfish
