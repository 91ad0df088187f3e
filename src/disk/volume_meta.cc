#include "disk/volume_meta.h"

#include <cstdio>
#include <filesystem>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/file_io.h"

namespace starfish {

namespace {

constexpr uint32_t kMetaMagic = 0x4D564653;  // "SFVM"
constexpr uint32_t kMetaVersion = 2;

constexpr uint32_t kRecordSnapshot = 1;
constexpr uint32_t kRecordDelta = 2;

/// kind + payload_len + crc32 around every record payload.
constexpr size_t kRecordOverhead = 12;

std::string EncodeBitmap(const std::vector<bool>& freed, uint64_t pages) {
  std::string bitmap((pages + 7) / 8, '\0');
  for (uint64_t i = 0; i < pages && i < freed.size(); ++i) {
    if (freed[i]) bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
  }
  return bitmap;
}

void AppendRecord(std::string* out, uint32_t kind, std::string_view payload) {
  std::string frame;
  PutFixed32(&frame, kind);
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload.data(), payload.size());
  PutFixed32(&frame, Crc32(frame));
  out->append(frame);
}

/// Applies one payload to the running state; false = corrupt record.
bool ApplyRecord(uint32_t kind, std::string_view payload,
                 VolumeMetaState* state) {
  if (kind == kRecordSnapshot) {
    uint64_t pages = 0;
    if (!GetFixed64(&payload, &pages)) return false;
    const size_t bitmap_bytes = (pages + 7) / 8;
    if (payload.size() != bitmap_bytes) return false;
    state->page_count = pages;
    state->freed.assign(pages, false);
    for (uint64_t i = 0; i < pages; ++i) {
      if (payload[i / 8] & (1 << (i % 8))) state->freed[i] = true;
    }
    return true;
  }
  if (kind == kRecordDelta) {
    uint64_t pages = 0;
    uint32_t freed_count = 0;
    if (!GetFixed64(&payload, &pages) || !GetFixed32(&payload, &freed_count)) {
      return false;
    }
    // The allocator only grows and ids are never reused: a shrinking count
    // or an id beyond it marks the record as garbage, not as state.
    if (pages < state->page_count) return false;
    if (payload.size() != static_cast<size_t>(freed_count) * 4) return false;
    state->page_count = pages;
    state->freed.resize(pages, false);
    for (uint32_t i = 0; i < freed_count; ++i) {
      uint32_t id = 0;
      if (!GetFixed32(&payload, &id)) return false;
      if (id >= pages) return false;
      // Idempotent on purpose: a checkpoint raced by a concurrent reopen may
      // re-record a free the snapshot already carries.
      state->freed[id] = true;
    }
    return true;
  }
  return false;  // unknown kind
}

}  // namespace

Status ReplayVolumeMeta(const std::string& path, VolumeMetaReplay* out) {
  *out = VolumeMetaReplay{};
  std::string bytes;
  STARFISH_RETURN_NOT_OK(ReadFileToString(path, &bytes, &out->found));
  if (!out->found) return Status::OK();

  std::string_view in(bytes);
  uint32_t magic = 0, version = 0;
  // An absent meta file means a fresh volume; an unreadable HEADER must be
  // an error — treating it as fresh would re-format a live volume.
  if (!GetFixed32(&in, &magic) || magic != kMetaMagic) {
    return Status::Corruption("bad volume.meta magic in " + path);
  }
  if (!GetFixed32(&in, &version)) {
    return Status::Corruption("truncated volume.meta in " + path);
  }
  if (version != kMetaVersion) {
    return Status::Corruption("unsupported volume.meta version in " + path);
  }
  if (!GetFixed32(&in, &out->state.options.page_size) ||
      !GetFixed32(&in, &out->state.options.extent_bytes)) {
    return Status::Corruption("truncated volume.meta header in " + path);
  }

  while (!in.empty()) {
    if (in.size() < kRecordOverhead) {
      out->torn_tail = true;  // short frame: a torn append
      break;
    }
    std::string_view frame = in;
    uint32_t kind = 0, len = 0;
    GetFixed32(&frame, &kind);
    GetFixed32(&frame, &len);
    if (frame.size() < static_cast<size_t>(len) + 4) {
      out->torn_tail = true;  // payload or checksum missing
      break;
    }
    const std::string_view payload = frame.substr(0, len);
    frame.remove_prefix(len);
    uint32_t stored_crc = 0;
    GetFixed32(&frame, &stored_crc);
    if (Crc32(in.substr(0, 8 + len)) != stored_crc ||
        !ApplyRecord(kind, payload, &out->state)) {
      out->torn_tail = true;
      break;
    }
    ++out->records;
    in.remove_prefix(kRecordOverhead + len);
  }
  return Status::OK();
}

void AppendVolumeMetaHeader(std::string* out, const DiskOptions& options) {
  PutFixed32(out, kMetaMagic);
  PutFixed32(out, kMetaVersion);
  PutFixed32(out, options.page_size);
  PutFixed32(out, options.extent_bytes);
}

void AppendSnapshotRecord(std::string* out, const VolumeMetaState& state) {
  std::string payload;
  PutFixed64(&payload, state.page_count);
  payload += EncodeBitmap(state.freed, state.page_count);
  AppendRecord(out, kRecordSnapshot, payload);
}

void AppendDeltaRecord(std::string* out, uint64_t new_page_count,
                       const std::vector<PageId>& newly_freed) {
  std::string payload;
  PutFixed64(&payload, new_page_count);
  PutFixed32(&payload, static_cast<uint32_t>(newly_freed.size()));
  for (PageId id : newly_freed) PutFixed32(&payload, id);
  AppendRecord(out, kRecordDelta, payload);
}

std::string ExtentFileName(size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "extent_%06zu", index);
  return name;
}

bool ParseExtentFileName(const std::string& name, uint64_t* index) {
  constexpr std::string_view kPrefix = "extent_";
  if (name.rfind(kPrefix.data(), 0) != 0) return false;
  const std::string digits = name.substr(kPrefix.size());
  if (digits.empty() || digits.size() > 12 ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *index = std::stoull(digits);
  return true;
}

Status RemoveOrphanExtentFiles(const std::string& dir, size_t expected) {
  // Manual increment with an error_code: the range-for ++ throws on a
  // mid-scan I/O error, which must surface as a Status on this API.
  std::error_code ec;
  std::vector<std::string> doomed;
  std::filesystem::directory_iterator it(dir, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    uint64_t index = 0;
    if (ParseExtentFileName(it->path().filename().string(), &index) &&
        index >= expected) {
      doomed.push_back(it->path());
    }
  }
  if (ec) {
    return Status::IOError("scan " + dir + ": " + ec.message());
  }
  for (const std::string& path : doomed) {
    std::filesystem::remove(path, ec);
    if (ec) {
      return Status::IOError("remove orphan extent " + path + ": " +
                             ec.message());
    }
  }
  if (!doomed.empty()) STARFISH_RETURN_NOT_OK(SyncDir(dir));
  return Status::OK();
}

Status AllocatorJournal::RewriteCompacted(VolumeMetaState current) {
  std::string bytes;
  AppendVolumeMetaHeader(&bytes, current.options);
  AppendSnapshotRecord(&bytes, current);
  STARFISH_RETURN_NOT_OK(WriteFileAtomic(path_, bytes));
  last_ = std::move(current);
  on_disk_ = true;
  append_unsafe_ = false;  // the atomic replace healed any torn tail
  return Status::OK();
}

Status AllocatorJournal::Checkpoint(VolumeMetaState current) {
  if (!on_disk_) return RewriteCompacted(std::move(current));

  std::vector<PageId> newly_freed;
  for (uint64_t i = 0; i < current.page_count; ++i) {
    const bool was_freed = i < last_.page_count && last_.freed[i];
    const bool is_freed = i < current.freed.size() && current.freed[i];
    if (is_freed && !was_freed) {
      newly_freed.push_back(static_cast<PageId>(i));
    } else if (!is_freed && was_freed) {
      // Un-freeing only happens via ReconcileLive (reopen recovery); a
      // delta cannot express it, so fold the journal into a snapshot.
      return RewriteCompacted(std::move(current));
    }
  }
  if (current.page_count == last_.page_count && newly_freed.empty()) {
    return Status::OK();  // nothing moved since the last record
  }
  if (append_unsafe_) {
    // A previous append failed partway: the tail may hold torn bytes, and
    // a fresh append would land BEYOND them, where replay never reaches.
    // Only an atomic rewrite may touch the file now.
    return RewriteCompacted(std::move(current));
  }
  std::string record;
  AppendDeltaRecord(&record, current.page_count, newly_freed);
  const Status appended = AppendFileDurable(path_, record);
  if (!appended.ok()) {
    // Heal the possibly-torn tail immediately (the compacted snapshot
    // replaces the whole file atomically and supersedes the delta); if
    // even that fails, the flag poisons appends until a rewrite succeeds.
    append_unsafe_ = true;
    return RewriteCompacted(std::move(current)).ok() ? Status::OK() : appended;
  }
  last_ = std::move(current);
  return Status::OK();
}

}  // namespace starfish
