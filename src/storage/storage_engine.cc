#include "storage/storage_engine.h"

#include <algorithm>
#include <unordered_set>

#include "disk/mem_volume.h"
#include "util/coding.h"

namespace starfish {

StorageEngine::StorageEngine(StorageEngineOptions options)
    : options_(std::move(options)) {
  auto volume_or = CreateVolume(options_.backend, options_.disk, options_.path);
  if (volume_or.ok()) {
    volume_ = std::move(volume_or).value();
  } else {
    // Keep the engine usable for callers that cannot observe a constructor
    // failure; Open() turns this into a proper error.
    init_status_ = volume_or.status();
    volume_ = std::make_unique<MemVolume>(options_.disk);
  }
  if (options_.volume_decorator) {
    volume_ = options_.volume_decorator(std::move(volume_));
  }
  // Let a direct-I/O backend DMA page reads straight into the frames: the
  // buffer arena adopts the volume's preferred alignment (decorators
  // forward it; 0 for the memory-addressable backends).
  options_.buffer.frame_alignment = std::max(
      options_.buffer.frame_alignment, volume_->io_buffer_alignment());
  buffer_ = std::make_unique<BufferManager>(volume_.get(), options_.buffer);
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    StorageEngineOptions options) {
  auto engine = std::make_unique<StorageEngine>(std::move(options));
  STARFISH_RETURN_NOT_OK(engine->init_status());
  return engine;
}

Result<Segment*> StorageEngine::CreateSegment(const std::string& name) {
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("segment '" + name + "' already exists");
  }
  const uint32_t id = static_cast<uint32_t>(segments_.size());
  segments_.push_back(std::make_unique<Segment>(id, name, buffer_.get()));
  Segment* segment = segments_.back().get();
  by_name_[name] = segment;
  return segment;
}

Result<Segment*> StorageEngine::OpenOrCreateSegment(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  return CreateSegment(name);
}

Segment* StorageEngine::GetSegment(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<Segment*> StorageEngine::segments() {
  std::vector<Segment*> out;
  out.reserve(segments_.size());
  for (const auto& segment : segments_) out.push_back(segment.get());
  return out;
}

std::vector<PageId> StorageEngine::AllSegmentPages() const {
  std::vector<PageId> out;
  for (const auto& segment : segments_) {
    out.insert(out.end(), segment->pages().begin(), segment->pages().end());
  }
  return out;
}

Status StorageEngine::ScrubSlottedRecords(const std::vector<Tid>& live) {
  std::unordered_set<uint64_t> keep;
  keep.reserve(live.size());
  for (const Tid& tid : live) keep.insert(tid.Pack());

  const uint32_t page_size = volume_->page_size();
  for (const auto& segment : segments_) {
    for (PageId page : segment->pages()) {
      if (segment->TypeHint(page) != PageType::kSlotted) continue;
      STARFISH_ASSIGN_OR_RETURN(PageGuard guard, buffer_->Fix(page));
      SlottedPage view(guard.data(), page_size);
      if (!view.IsFormatted()) {
        return Status::Corruption("cataloged slotted page " +
                                  std::to_string(page) +
                                  " has no formatted header");
      }
      bool scrubbed = false;
      const uint16_t slots = view.slot_count();
      for (uint16_t slot = 0; slot < slots; ++slot) {
        if (!view.Read(slot).ok()) continue;  // already empty
        if (keep.count(Tid{page, slot}.Pack()) > 0) continue;
        STARFISH_RETURN_NOT_OK(view.Delete(slot));
        scrubbed = true;
      }
      if (scrubbed) guard.MarkDirty();
      // Recompute the hint from the actual content either way: a fallback
      // can also leave hints claiming MORE space than the page has.
      segment->SetFreeHint(page, view.FreeSpaceForNewRecord());
    }
  }
  return Status::OK();
}

EngineStats StorageEngine::stats() const {
  return EngineStats{volume_->stats(), buffer_->stats()};
}

void StorageEngine::ResetStats() {
  volume_->ResetStats();
  buffer_->ResetStats();
}

void StorageEngine::SaveCatalog(std::string* out) const {
  PutFixed32(out, static_cast<uint32_t>(segments_.size()));
  for (const auto& segment : segments_) {
    PutLengthPrefixed(out, segment->name());
    segment->SaveState(out);
  }
}

Status StorageEngine::LoadCatalog(std::string_view* in) {
  uint32_t count = 0;
  if (!GetFixed32(in, &count)) {
    return Status::Corruption("engine catalog: truncated segment count");
  }
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(in, &name)) {
      return Status::Corruption("engine catalog: truncated segment name");
    }
    STARFISH_ASSIGN_OR_RETURN(Segment * segment,
                              OpenOrCreateSegment(std::string(name)));
    STARFISH_RETURN_NOT_OK(segment->LoadState(in));
  }
  return Status::OK();
}

}  // namespace starfish
