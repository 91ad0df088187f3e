#include "tools/fsck.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>

#include "core/generations.h"
#include "disk/page.h"
#include "disk/volume_meta.h"
#include "models/storage_model.h"
#include "storage/slotted_page.h"
#include "storage/tid.h"
#include "util/coding.h"
#include "wal/wal_format.h"

namespace starfish {

namespace {

/// Matches Segment's "not a slotted page" free-hint sentinel.
constexpr uint32_t kNotSlotted = ~0u;

/// Everything the checks accumulate while walking the directory.
struct FsckContext {
  std::string dir;
  FsckOptions options;
  FsckReport* report;
  VolumeMetaState meta;
  /// page -> (segment ordinal, cataloged type) for every cataloged page.
  std::map<PageId, std::pair<uint32_t, PageType>> referenced;
  /// The wal.log scan (valid whenever wal.found && wal.header_valid).
  WalScan wal;

  void Error(const std::string& message) {
    report->errors.push_back(message);
  }
  void Warn(const std::string& message) {
    report->warnings.push_back(message);
  }
  void Info(const std::string& message) {
    if (options.verbose) report->info.push_back(message);
  }
};

bool ValidPageType(uint16_t type) {
  return type <= static_cast<uint16_t>(PageType::kIndex);
}

std::string PageTypeName(PageType type) {
  switch (type) {
    case PageType::kFree: return "free";
    case PageType::kSlotted: return "slotted";
    case PageType::kComplexHeader: return "complex-header";
    case PageType::kComplexHeaderExt: return "complex-header-ext";
    case PageType::kComplexData: return "complex-data";
    case PageType::kPool: return "pool";
    case PageType::kIndex: return "index";
  }
  return "unknown";
}

/// Reads one page image straight from its extent file (no mmap, no cache).
/// A short read is padded with zeros, matching how MapExtent repairs a
/// short extent file (holes read as zero-filled pages) — the header check
/// then reports "not formatted" only for pages whose bytes are truly gone.
bool ReadPageImage(const FsckContext& ctx, PageId id, std::vector<char>* out) {
  const uint32_t page_size = ctx.meta.options.page_size;
  const uint32_t ppe =
      std::max(1u, ctx.meta.options.extent_bytes / page_size);
  const std::string path =
      ctx.dir + "/" + ExtentFileName(static_cast<size_t>(id / ppe));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->assign(page_size, '\0');
  const long offset = static_cast<long>(id % ppe) * page_size;
  const bool ok = std::fseek(f, offset, SEEK_SET) == 0;
  if (ok) (void)std::fread(out->data(), 1, page_size, f);
  std::fclose(f);
  return ok;
}

// ------------------------------------------------------------- layer 1+2 --

/// volume.meta replay + extent-file inventory.
void CheckVolume(FsckContext* ctx) {
  VolumeMetaReplay replay;
  const Status replayed =
      ReplayVolumeMeta(ctx->dir + "/volume.meta", &replay);
  if (!replayed.ok()) {
    ctx->Error("volume.meta: " + replayed.ToString());
    return;
  }
  if (!replay.found) return;  // an empty / catalog-only directory
  ctx->report->volume_found = true;
  ctx->meta = replay.state;
  ctx->report->page_count = replay.state.page_count;
  ctx->report->live_pages = replay.state.live_pages();
  ctx->report->page_size = replay.state.options.page_size;
  if (replay.torn_tail) {
    ctx->Warn("volume.meta: torn tail record dropped (crash artifact; "
              "replay recovered the last durable allocator state)");
  }
  if (replay.state.options.page_size == 0) {
    ctx->Error("volume.meta: zero page size");
    return;
  }

  const uint32_t ppe = std::max(
      1u, replay.state.options.extent_bytes / replay.state.options.page_size);
  const uint64_t expected =
      (replay.state.page_count + ppe - 1) / ppe;
  const size_t extent_bytes = static_cast<size_t>(ppe) *
                              replay.state.options.page_size;
  for (uint64_t i = 0; i < expected; ++i) {
    const std::string path =
        ctx->dir + "/" + ExtentFileName(static_cast<size_t>(i));
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      ctx->Error("missing extent file " + path + " (pages " +
                 std::to_string(i * ppe) + "..)");
    } else if (std::filesystem::file_size(path, ec) < extent_bytes) {
      ctx->Warn("short extent file " + path +
                " (repairable: holes read as zero-filled pages)");
    }
  }
  // Inventory what is actually there, flagging files beyond the durable
  // allocator state — the leavings of an allocation that never synced.
  // Manual increment: the range-for ++ throws on mid-scan I/O errors.
  std::error_code ec;
  std::filesystem::directory_iterator it(ctx->dir, ec), dir_end;
  for (; !ec && it != dir_end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("extent_", 0) != 0) continue;
    ++ctx->report->extent_files;
    uint64_t index = 0;
    if (!ParseExtentFileName(name, &index)) {
      ctx->Warn("unparseable extent file name " + name);
      continue;
    }
    if (index >= expected) {
      ctx->Warn("orphan extent file " + name +
                " beyond the durable page count (crash artifact; removed "
                "at next open)");
    }
  }
  if (ec) {
    ctx->Error("extent inventory incomplete: " + ec.message());
  }
}

// --------------------------------------------------------------- layer 3 --

/// One cataloged page: allocation, header, segment id, type agreement.
void CheckCatalogedPage(FsckContext* ctx, uint32_t segment_ordinal,
                        const std::string& segment_name, PageId page,
                        uint32_t hint, PageType type) {
  const std::string where =
      "segment '" + segment_name + "' page " + std::to_string(page);
  if (page >= ctx->meta.page_count) {
    ctx->Error(where + ": beyond the volume's " +
               std::to_string(ctx->meta.page_count) + " pages");
    return;
  }
  if (ctx->meta.freed[page]) {
    ctx->Error(where + ": referenced by the catalog but freed in the "
               "allocator journal");
  }
  auto [it, inserted] =
      ctx->referenced.emplace(page, std::make_pair(segment_ordinal, type));
  if (!inserted) {
    ctx->Error(where + ": also cataloged by segment ordinal " +
               std::to_string(it->second.first));
    return;
  }
  if (hint != kNotSlotted &&
      hint > ctx->meta.options.page_size) {
    ctx->Error(where + ": free-space hint " + std::to_string(hint) +
               " exceeds the page size");
  }
  std::vector<char> image;
  if (!ReadPageImage(*ctx, page, &image)) {
    ctx->Error(where + ": page image unreadable");
    return;
  }
  SlottedPage view(image.data(), ctx->meta.options.page_size);
  if (!view.IsFormatted()) {
    ctx->Error(where + ": page header not formatted");
    return;
  }
  if (view.segment_id() != segment_ordinal) {
    ctx->Error(where + ": page header claims segment id " +
               std::to_string(view.segment_id()) + ", catalog ordinal is " +
               std::to_string(segment_ordinal));
  }
  if (view.type() != type) {
    ctx->Error(where + ": page header type '" + PageTypeName(view.type()) +
               "' disagrees with cataloged type '" + PageTypeName(type) +
               "'");
  }
  // WAL-before-data horizon: a committed page stamped with an LSN the log
  // never issued means a page image reached the medium with no durable
  // record explaining it.
  if (ctx->wal.found && ctx->wal.header_valid) {
    const uint64_t page_lsn = GetPageLsn(image.data());
    if (page_lsn >= ctx->wal.next_lsn) {
      ctx->Error(where + ": page LSN " + std::to_string(page_lsn) +
                 " at or beyond the log's next LSN " +
                 std::to_string(ctx->wal.next_lsn) +
                 " (WAL-before-data violated)");
    }
  }
}

/// The engine segment catalog: names, page lists, hints.
bool CheckSegmentCatalog(FsckContext* ctx, std::string_view* in) {
  uint32_t segment_count = 0;
  if (!GetFixed32(in, &segment_count)) {
    ctx->Error("catalog: truncated segment count");
    return false;
  }
  ctx->report->segment_count = segment_count;
  for (uint32_t s = 0; s < segment_count; ++s) {
    std::string_view name_view;
    uint32_t page_count = 0;
    if (!GetLengthPrefixed(in, &name_view) || !GetFixed32(in, &page_count)) {
      ctx->Error("catalog: truncated segment entry " + std::to_string(s));
      return false;
    }
    const std::string name(name_view);
    if (page_count > in->size() / 10) {
      ctx->Error("catalog: implausible page count in segment '" + name + "'");
      return false;
    }
    for (uint32_t p = 0; p < page_count; ++p) {
      uint32_t page = 0, hint = 0;
      uint16_t type = 0;
      if (!GetFixed32(in, &page) || !GetFixed32(in, &hint) ||
          !GetFixed16(in, &type)) {
        ctx->Error("catalog: truncated page entry in segment '" + name + "'");
        return false;
      }
      if (!ValidPageType(type)) {
        ctx->Error("segment '" + name + "' page " + std::to_string(page) +
                   ": invalid cataloged page type " + std::to_string(type));
        continue;
      }
      CheckCatalogedPage(ctx, s, name, page, hint,
                         static_cast<PageType>(type));
    }
    ctx->Info("segment '" + name + "': " + std::to_string(page_count) +
              " pages");
  }
  return true;
}

// --------------------------------------------------------------- layer 4 --
//
// The model-state walkers below mirror the SaveState byte layouts of
// DirectModel (direct_model.cc), NsmModel (nsm_model.cc) and
// DasdbsNsmModel (dasdbs_nsm_model.cc) on purpose: fsck's design point is
// vetting a store no binary can open (unknown schema, wrong build), so it
// parses structurally instead of constructing models. The coupling is
// LOCKED BY TESTS, not by shared code — fsck_test, the crash matrix and
// the catalog fuzz suite run these walkers over catalogs freshly written
// by all five models, so any SaveState format change fails them
// immediately. When extending a model's SaveState, update its walker here
// in the same commit.

/// A model-state address must land inside a cataloged page.
void CheckAddress(FsckContext* ctx, PageId page, const char* what) {
  if (ctx->referenced.find(page) == ctx->referenced.end()) {
    ctx->Error(std::string(what) + " points at page " + std::to_string(page) +
               " which no segment catalogs");
  }
}

void CheckTypedPage(FsckContext* ctx, PageId page, PageType want,
                    const char* what) {
  auto it = ctx->referenced.find(page);
  if (it == ctx->referenced.end()) {
    ctx->Error(std::string(what) + " points at page " + std::to_string(page) +
               " which no segment catalogs");
    return;
  }
  if (it->second.second != want) {
    ctx->Error(std::string(what) + " points at page " + std::to_string(page) +
               " of type '" + PageTypeName(it->second.second) +
               "', expected '" + PageTypeName(want) + "'");
  }
}

/// u64 entries, each u64 key + u32 count + count * u64 packed TIDs.
bool CheckTransformationTable(FsckContext* ctx, std::string_view* in,
                              const std::string& what) {
  uint64_t entries = 0;
  if (!GetFixed64(in, &entries) || entries > in->size() / 12) {
    ctx->Error(what + ": truncated or implausible transformation table");
    return false;
  }
  for (uint64_t e = 0; e < entries; ++e) {
    uint64_t key = 0;
    uint32_t count = 0;
    if (!GetFixed64(in, &key) || !GetFixed32(in, &count) ||
        count > in->size() / 8) {
      ctx->Error(what + ": truncated transformation entry");
      return false;
    }
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t packed = 0;
      if (!GetFixed64(in, &packed)) {
        ctx->Error(what + ": truncated transformation address");
        return false;
      }
      const Tid tid = Tid::Unpack(packed);
      if (tid.valid()) {
        CheckAddress(ctx, tid.page,
                     (what + " key " + std::to_string(key)).c_str());
      }
    }
  }
  return true;
}

/// u32 root, u64 size, u32 height, u64 node_pages.
bool CheckTreeState(FsckContext* ctx, std::string_view* in,
                    const std::string& what) {
  uint32_t root = 0, height = 0;
  uint64_t size = 0, node_pages = 0;
  if (!GetFixed32(in, &root) || !GetFixed64(in, &size) ||
      !GetFixed32(in, &height) || !GetFixed64(in, &node_pages)) {
    ctx->Error(what + ": truncated b+-tree state");
    return false;
  }
  if (root != kInvalidPageId) {
    CheckTypedPage(ctx, root, PageType::kIndex, (what + " root").c_str());
  } else if (size != 0 || height != 0) {
    ctx->Error(what + ": empty root but size " + std::to_string(size) +
               ", height " + std::to_string(height));
  }
  return true;
}

/// DirectModel (kDsm / kDasdbsDsm): u64 live total, u32 stripe count, then
/// per stripe u32 pool_first, u64 slots, slots * u64 packed TIDs. Refs map
/// to stripes as ref % stripe_count (slot = ref / stripe_count).
bool CheckDirectModelState(FsckContext* ctx, std::string_view* in) {
  uint64_t live = 0;
  uint32_t stripe_count = 0;
  if (!GetFixed64(in, &live) || !GetFixed32(in, &stripe_count) ||
      stripe_count == 0 || stripe_count > in->size() / 12) {
    ctx->Error("model state: truncated direct-model header");
    return false;
  }
  uint64_t present = 0;
  for (uint32_t s = 0; s < stripe_count; ++s) {
    const std::string stripe = "stripe " + std::to_string(s);
    uint64_t slots = 0;
    uint32_t pool_first = kInvalidPageId;
    if (!GetFixed32(in, &pool_first) || !GetFixed64(in, &slots) ||
        slots > in->size() / 8) {
      ctx->Error("model state: truncated direct-model " + stripe + " header");
      return false;
    }
    if (pool_first != kInvalidPageId) {
      CheckTypedPage(ctx, pool_first, PageType::kPool,
                     (stripe + " page-pool head").c_str());
    }
    for (uint64_t i = 0; i < slots; ++i) {
      uint64_t packed = 0;
      if (!GetFixed64(in, &packed)) {
        ctx->Error("model state: truncated direct-model object table (" +
                   stripe + ")");
        return false;
      }
      const Tid tid = Tid::Unpack(packed);
      if (!tid.valid()) continue;
      ++present;
      const uint64_t ref = i * stripe_count + s;
      CheckAddress(ctx, tid.page,
                   ("object ref " + std::to_string(ref)).c_str());
    }
  }
  if (present != live) {
    ctx->Error("model state: live count " + std::to_string(live) +
               " disagrees with " + std::to_string(present) +
               " addressed objects");
  }
  return true;
}

/// NsmModel (kNsm / kNsmIndexed): u64 live, u32 paths, u64 refs,
/// refs * (u64 key, u64 tid), paths * table, paths * (u16 flag [+ tree]).
bool CheckNsmModelState(FsckContext* ctx, std::string_view* in) {
  constexpr uint64_t kNoKey = 0x8000000000000000ull;  // int64 min
  uint64_t live = 0, refs = 0;
  uint32_t paths = 0;
  if (!GetFixed64(in, &live) || !GetFixed32(in, &paths) ||
      !GetFixed64(in, &refs) || refs > in->size() / 16) {
    ctx->Error("model state: truncated nsm header");
    return false;
  }
  uint64_t present = 0;
  for (uint64_t i = 0; i < refs; ++i) {
    uint64_t key = 0, packed = 0;
    if (!GetFixed64(in, &key) || !GetFixed64(in, &packed)) {
      ctx->Error("model state: truncated nsm object table");
      return false;
    }
    if (key == kNoKey) continue;
    ++present;
    const Tid tid = Tid::Unpack(packed);
    if (tid.valid()) {
      CheckAddress(ctx, tid.page,
                   ("root record of key " + std::to_string(key)).c_str());
    }
  }
  if (present != live) {
    ctx->Error("model state: live count " + std::to_string(live) +
               " disagrees with " + std::to_string(present) + " keys");
  }
  for (uint32_t p = 0; p < paths; ++p) {
    if (!CheckTransformationTable(
            ctx, in, "path " + std::to_string(p) + " table")) {
      return false;
    }
  }
  for (uint32_t p = 0; p < paths; ++p) {
    uint16_t has_tree = 0;
    if (!GetFixed16(in, &has_tree)) {
      ctx->Error("model state: truncated nsm tree flag");
      return false;
    }
    if (has_tree != 0 &&
        !CheckTreeState(ctx, in, "path " + std::to_string(p) + " index")) {
      return false;
    }
  }
  return true;
}

/// DasdbsNsmModel: u32 paths, paths * u32 pool_first, u64 refs,
/// refs * u64 key, one transformation table.
bool CheckDasdbsNsmModelState(FsckContext* ctx, std::string_view* in) {
  uint32_t paths = 0;
  if (!GetFixed32(in, &paths) || paths > in->size() / 4) {
    ctx->Error("model state: truncated dasdbs-nsm header");
    return false;
  }
  for (uint32_t p = 0; p < paths; ++p) {
    uint32_t pool_first = kInvalidPageId;
    if (!GetFixed32(in, &pool_first)) {
      ctx->Error("model state: truncated dasdbs-nsm pool entry");
      return false;
    }
    if (pool_first != kInvalidPageId) {
      CheckTypedPage(ctx, pool_first, PageType::kPool,
                     ("path " + std::to_string(p) + " pool head").c_str());
    }
  }
  uint64_t refs = 0;
  if (!GetFixed64(in, &refs) || refs > in->size() / 8) {
    ctx->Error("model state: truncated dasdbs-nsm object table");
    return false;
  }
  for (uint64_t i = 0; i < refs; ++i) {
    uint64_t key = 0;
    if (!GetFixed64(in, &key)) {
      ctx->Error("model state: truncated dasdbs-nsm key table");
      return false;
    }
  }
  return CheckTransformationTable(ctx, in, "dasdbs-nsm table");
}

bool CheckModelState(FsckContext* ctx, StorageModelKind kind,
                     std::string_view* in) {
  switch (kind) {
    case StorageModelKind::kDsm:
    case StorageModelKind::kDasdbsDsm:
      return CheckDirectModelState(ctx, in);
    case StorageModelKind::kNsm:
    case StorageModelKind::kNsmIndexed:
      return CheckNsmModelState(ctx, in);
    case StorageModelKind::kDasdbsNsm:
      return CheckDasdbsNsmModelState(ctx, in);
  }
  ctx->Error("model state: unknown storage model kind " +
             std::to_string(static_cast<uint32_t>(kind)));
  return false;
}

/// Full structural walk of one catalog payload.
void CheckCatalogPayload(FsckContext* ctx, std::string_view payload) {
  uint32_t model_kind = 0, page_size = 0, path_count = 0;
  uint64_t key_attr = 0;
  std::string_view schema_name;
  if (!GetFixed32(&payload, &model_kind) ||
      !GetFixed32(&payload, &page_size) ||
      !GetFixed64(&payload, &key_attr) ||
      !GetLengthPrefixed(&payload, &schema_name) ||
      !GetFixed32(&payload, &path_count) ||
      !GetFixed64(&payload, &ctx->report->wal_checkpoint_lsn)) {
    ctx->Error("catalog: truncated store header");
    return;
  }
  if (model_kind > static_cast<uint32_t>(StorageModelKind::kDasdbsNsm)) {
    ctx->Error("catalog: unknown storage model kind " +
               std::to_string(model_kind));
    return;
  }
  if (ctx->report->volume_found && page_size != ctx->meta.options.page_size) {
    ctx->Error("catalog records page size " + std::to_string(page_size) +
               " but volume.meta records " +
               std::to_string(ctx->meta.options.page_size));
    return;
  }
  ctx->Info("schema '" + std::string(schema_name) + "', model '" +
            ToString(static_cast<StorageModelKind>(model_kind)) + "', " +
            std::to_string(path_count) + " paths");
  if (!CheckSegmentCatalog(ctx, &payload)) return;
  if (!CheckModelState(ctx, static_cast<StorageModelKind>(model_kind),
                       &payload)) {
    return;
  }
  if (!payload.empty()) {
    ctx->Error("catalog: " + std::to_string(payload.size()) +
               " bytes of trailing garbage after the model state");
  }
}

/// CURRENT resolution (the same shared algorithm Open runs —
/// ResolveCommittedCatalog) + catalog CRC + the payload walk.
void CheckCatalog(FsckContext* ctx) {
  ResolvedCatalog resolved;
  const Status status = ResolveCommittedCatalog(ctx->dir, &resolved);
  // Every candidate the resolver had to skip is damage worth reporting,
  // whether or not an older generation saved the day.
  for (const std::string& rejection : resolved.rejected) {
    ctx->Error(rejection);
  }
  if (!status.ok()) {
    ctx->Error(status.ToString());
    return;
  }

  if (!resolved.any_committed) {
    for (uint64_t gen : resolved.generations) {
      ctx->Warn("catalog." + std::to_string(gen) +
                ".sf without CURRENT: an uncommitted first checkpoint "
                "(crash artifact; removed at next open)");
    }
    if (ctx->report->volume_found && ctx->report->live_pages > 0) {
      ctx->Warn(std::to_string(ctx->report->live_pages) +
                " live pages but nothing ever committed: a run crashed "
                "before its first checkpoint (reclaimed at next store "
                "open)");
    }
    return;  // a bare volume (or an empty directory) — nothing more to vet
  }

  for (auto it = resolved.generations.rbegin();
       it != resolved.generations.rend(); ++it) {
    if (*it > resolved.current) {
      ctx->Warn("catalog." + std::to_string(*it) +
                ".sf is newer than CURRENT: an uncommitted checkpoint "
                "(crash artifact; removed at next open)");
    }
  }
  ctx->report->catalog_found = true;
  ctx->report->generation = resolved.loaded;
  if (resolved.fallback) {
    ctx->Warn("CURRENT names generation " + std::to_string(resolved.current) +
              " but generation " + std::to_string(resolved.loaded) +
              " is the newest loadable one (Open would fall back and "
              "repair CURRENT)");
  }
  CheckCatalogPayload(ctx, resolved.file.payload);
}

// --------------------------------------------------------------- layer 5 --

/// wal.log framing scan. Runs BEFORE the catalog walk so the per-page LSN
/// horizon check can use the scan; the catalog-agreement checks run after.
void ScanWal(FsckContext* ctx) {
  auto scan_or = ScanWalFile(WalPath(ctx->dir));
  if (!scan_or.ok()) {
    ctx->Error("wal.log: " + scan_or.status().ToString());
    return;
  }
  ctx->wal = std::move(scan_or).value();
  ctx->report->wal_found = ctx->wal.found;
  ctx->report->wal_header_valid = ctx->wal.header_valid;
  ctx->report->wal_torn_tail = ctx->wal.torn_tail;
  ctx->report->wal_base_lsn = ctx->wal.base_lsn;
  ctx->report->wal_next_lsn = ctx->wal.next_lsn;
  ctx->report->wal_records = ctx->wal.records.size();
  if (!ctx->wal.found) return;
  if (!ctx->wal.header_valid) {
    ctx->Warn("wal.log: invalid header (damage; the next open falls back "
              "to the catalog-only scrub and rebuilds the log)");
    return;
  }
  if (ctx->wal.torn_tail) {
    ctx->Warn("wal.log: torn tail after " +
              std::to_string(ctx->wal.records.size()) +
              " valid records (crash artifact; replay stops at the last "
              "valid record)");
  }
}

/// The log against the committed catalog: checkpoint LSN coverage, stale
/// sub-checkpoint records, the truncation checkpoint record's generation.
// Transaction framing is a log-local property — it needs no committed
// catalog (a crash image can predate the first checkpoint entirely):
// marker payloads must decode, and every transaction begun at or past
// the checkpoint horizon should meet its commit/abort. A dangling begin
// is a crash artifact, not damage — the next open treats the transaction
// as aborted (its ops have no commit verdict) — so it warns, never errors.
void CheckWalTxnFraming(FsckContext* ctx) {
  if (!ctx->wal.found || !ctx->wal.header_valid) return;
  const uint64_t horizon = ctx->report->catalog_found
                               ? ctx->report->wal_checkpoint_lsn
                               : ctx->wal.base_lsn;
  std::map<uint64_t, uint64_t> open_txns;  // txn id -> begin LSN
  for (const WalRecord& record : ctx->wal.records) {
    if (record.lsn < horizon) continue;
    if (!IsWalTxnMarker(record.kind)) continue;
    uint64_t txn_id = 0;
    if (!DecodeWalTxnPayload(record.payload, &txn_id)) {
      ctx->Error("wal.log: undecodable txn marker payload (lsn " +
                 std::to_string(record.lsn) + ")");
      continue;
    }
    if (record.kind == WalRecordKind::kTxnBegin) {
      open_txns.emplace(txn_id, record.lsn);
    } else if (open_txns.erase(txn_id) == 0) {
      ctx->Warn("wal.log: " + std::string(ToString(record.kind)) +
                " for transaction " + std::to_string(txn_id) +
                " without a begin after the checkpoint horizon (lsn " +
                std::to_string(record.lsn) + ")");
    }
  }
  for (const auto& [txn_id, begin_lsn] : open_txns) {
    ctx->Warn("wal.log: transaction " + std::to_string(txn_id) +
              " begun at LSN " + std::to_string(begin_lsn) +
              " has no commit or abort (crash artifact; its ops are "
              "rolled back at next open)");
  }
}

void CheckWalAgainstCatalog(FsckContext* ctx) {
  if (!ctx->report->catalog_found) return;
  const uint64_t checkpoint_lsn = ctx->report->wal_checkpoint_lsn;
  if (!ctx->wal.found) {
    ctx->Warn("wal.log: missing for a WAL-aware catalog (the next open "
              "falls back to the catalog-only scrub and rebuilds it)");
    return;
  }
  if (!ctx->wal.header_valid) return;  // already warned by ScanWal
  if (ctx->wal.next_lsn < checkpoint_lsn) {
    ctx->Warn("wal.log: ends at LSN " + std::to_string(ctx->wal.next_lsn) +
              ", before the committed checkpoint LSN " +
              std::to_string(checkpoint_lsn) +
              " (not the log that checkpoint truncated; the next open "
              "scrubs instead of replaying)");
    return;
  }
  for (const WalRecord& record : ctx->wal.records) {
    if (record.lsn < checkpoint_lsn) ++ctx->report->wal_stale_records;
  }
  if (ctx->report->wal_stale_records > 0) {
    ctx->Warn("wal.log: " + std::to_string(ctx->report->wal_stale_records) +
              " records below the committed checkpoint LSN " +
              std::to_string(checkpoint_lsn) +
              " (a crash between catalog commit and log truncation; "
              "skipped at replay, truncated at next open)");
  }
  if (!ctx->wal.records.empty() &&
      ctx->wal.records.front().kind == WalRecordKind::kCheckpoint &&
      ctx->wal.records.front().lsn == ctx->wal.base_lsn) {
    uint64_t log_generation = 0;
    if (!DecodeWalCheckpointPayload(ctx->wal.records.front().payload,
                                    &log_generation)) {
      ctx->Error("wal.log: undecodable checkpoint record payload");
    } else if (log_generation != ctx->report->generation) {
      ctx->Warn("wal.log: truncated against generation " +
                std::to_string(log_generation) + " but generation " +
                std::to_string(ctx->report->generation) +
                " is the committed one (fallback artifact; the next open "
                "scrubs instead of replaying)");
    }
  }
}

/// Allocator vs. catalog reference cross-check.
void CrossCheck(FsckContext* ctx) {
  if (!ctx->report->volume_found || !ctx->report->catalog_found) return;
  ctx->report->referenced_pages = ctx->referenced.size();
  uint64_t orphans = 0;
  for (uint64_t page = 0; page < ctx->meta.page_count; ++page) {
    if (ctx->meta.freed[page]) continue;
    if (ctx->referenced.find(static_cast<PageId>(page)) ==
        ctx->referenced.end()) {
      ++orphans;
    }
  }
  ctx->report->orphan_pages = orphans;
  if (orphans > 0) {
    ctx->Warn(std::to_string(orphans) +
              " allocated pages referenced by nothing (crash artifact; "
              "reclaimed at next open)");
  }
}

}  // namespace

std::string FsckReport::ToString() const {
  std::string out = "sf_fsck " + dir + "\n";
  if (volume_found) {
    out += "  volume: " + std::to_string(page_count) + " pages (" +
           std::to_string(live_pages) + " live), page size " +
           std::to_string(page_size) + ", " + std::to_string(extent_files) +
           " extent files\n";
  } else {
    out += "  volume: no volume.meta\n";
  }
  if (catalog_found) {
    out += "  catalog: generation " + std::to_string(generation) + ", " +
           std::to_string(segment_count) + " segments, " +
           std::to_string(referenced_pages) + " referenced pages, " +
           std::to_string(orphan_pages) + " orphans\n";
  } else {
    out += "  catalog: none committed\n";
  }
  if (wal_found) {
    out += "  wal: ";
    if (!wal_header_valid) {
      out += "invalid header\n";
    } else {
      out += "base LSN " + std::to_string(wal_base_lsn) + ", " +
             std::to_string(wal_records) + " records" +
             (wal_torn_tail ? ", torn tail" : "") +
             (wal_stale_records > 0
                  ? ", " + std::to_string(wal_stale_records) + " stale"
                  : "") +
             ", checkpoint LSN " + std::to_string(wal_checkpoint_lsn) + "\n";
    }
  } else {
    out += "  wal: no wal.log\n";
  }
  for (const std::string& line : info) out += "  info: " + line + "\n";
  for (const std::string& line : warnings) out += "  WARN: " + line + "\n";
  for (const std::string& line : errors) out += "  ERROR: " + line + "\n";
  out += clean() ? "  clean: 0 inconsistencies\n"
                 : "  NOT CLEAN: " + std::to_string(errors.size()) +
                       " inconsistencies\n";
  return out;
}

Result<FsckReport> RunFsck(const std::string& dir, FsckOptions options) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::IOError("not a directory: " + dir);
  }
  FsckReport report;
  report.dir = dir;
  FsckContext ctx;
  ctx.dir = dir;
  ctx.options = options;
  ctx.report = &report;

  CheckVolume(&ctx);
  ScanWal(&ctx);
  CheckCatalog(&ctx);
  CheckWalAgainstCatalog(&ctx);
  CheckWalTxnFraming(&ctx);
  CrossCheck(&ctx);
  return report;
}

}  // namespace starfish
