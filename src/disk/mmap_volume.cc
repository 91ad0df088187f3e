#include "disk/mmap_volume.h"

#if defined(__unix__) || defined(__APPLE__)
#define STARFISH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/file_io.h"

namespace starfish {

namespace {

/// Journals longer than this are compacted to a single snapshot at reopen;
/// between reopens they grow by one small delta per checkpoint.
constexpr uint32_t kCompactRecordThreshold = 64;

}  // namespace

Result<std::unique_ptr<MmapVolume>> MmapVolume::Open(const std::string& dir,
                                                     DiskOptions options) {
#if !STARFISH_HAVE_MMAP
  (void)dir;
  (void)options;
  return Status::NotSupported("MmapVolume requires a POSIX mmap platform");
#else
  if (dir.empty()) {
    return Status::InvalidArgument("MmapVolume requires a backing directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create volume directory " + dir + ": " +
                           ec.message());
  }

  VolumeMetaReplay replay;
  STARFISH_RETURN_NOT_OK(ReplayVolumeMeta(dir + "/volume.meta", &replay));
  // A volume cannot change its geometry after the fact: the recorded
  // page/extent sizes win over the ones passed in.
  if (replay.found) options = replay.state.options;

  auto volume = std::unique_ptr<MmapVolume>(new MmapVolume(dir, options));
  if (!replay.found) {
    // No durable allocator state: any extent file lying around is the
    // leaving of a run that crashed before its first checkpoint. Remove
    // them — NewExtent would otherwise adopt their stale bytes as
    // "zero-filled" fresh pages.
    STARFISH_RETURN_NOT_OK(RemoveOrphanExtentFiles(dir, 0));
  }
  if (replay.found) {
    const uint64_t ppe = volume->pages_per_extent();
    const uint64_t pages = replay.state.page_count;
    const size_t extent_count = (pages + ppe - 1) / ppe;
    // Extent files beyond the durable page count are the leavings of a
    // crashed, never-checkpointed allocation. Remove them now: a future
    // AllocateRun reaching their index must see zero-filled pages, not the
    // stale bytes of the crashed run.
    STARFISH_RETURN_NOT_OK(RemoveOrphanExtentFiles(dir, extent_count));
    for (size_t i = 0; i < extent_count; ++i) {
      STARFISH_ASSIGN_OR_RETURN(char* extent,
                                volume->MapExtent(i, /*create=*/false));
      volume->AdoptExtent(extent);
      if (i + 1 == extent_count && pages % ppe != 0) {
        // Same reasoning within the last extent: pages past the durable
        // count may hold bytes of a crashed run; fresh pages must be zero.
        const size_t used =
            static_cast<size_t>(pages % ppe) * volume->page_size();
        std::memset(extent + used, 0, volume->extent_size_bytes() - used);
      }
    }
    volume->RestoreAllocatorState(pages, replay.state.freed);
    volume->journal_.MarkReplayed(replay.state);
    if (replay.torn_tail || replay.records > kCompactRecordThreshold) {
      // Torn tails must not poison later appends (replay stops at the first
      // bad record), and long journals fold into one snapshot.
      STARFISH_RETURN_NOT_OK(
          volume->journal_.RewriteCompacted(volume->CurrentMetaState()));
    }
  }
  return volume;
#endif
}

MmapVolume::~MmapVolume() {
#if STARFISH_HAVE_MMAP
  // Best-effort checkpoint: page bytes reach the files via the shared
  // mappings; the journal append makes the allocator state match them.
  (void)journal_.Checkpoint(CurrentMetaState());
  for (void* mapping : mappings_) {
    if (mapping != nullptr) ::munmap(mapping, extent_size_bytes());
  }
#endif
}

std::string MmapVolume::ExtentPath(size_t index) const {
  return dir_ + "/" + ExtentFileName(index);
}

Result<char*> MmapVolume::NewExtent(size_t index) {
  return MapExtent(index, /*create=*/true);
}

Result<char*> MmapVolume::MapExtent(size_t index, bool create) {
#if !STARFISH_HAVE_MMAP
  (void)index;
  (void)create;
  return Status::NotSupported("MmapVolume requires a POSIX mmap platform");
#else
  const std::string path = ExtentPath(index);
  const int flags = create ? (O_RDWR | O_CREAT) : O_RDWR;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  const size_t bytes = extent_size_bytes();
  // ftruncate both creates the zero-filled image of a fresh extent and
  // repairs a short file (holes read as zeros, same as fresh pages).
  struct stat st;
  if (::fstat(fd, &st) != 0 ||
      (static_cast<size_t>(st.st_size) < bytes &&
       ::ftruncate(fd, static_cast<off_t>(bytes)) != 0)) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("size " + path + ": " + err);
  }
  void* mapping =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (mapping == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(errno));
  }
  mappings_.push_back(mapping);
  return static_cast<char*>(mapping);
#endif
}

Status MmapVolume::Sync() {
#if !STARFISH_HAVE_MMAP
  return Status::NotSupported("MmapVolume requires a POSIX mmap platform");
#else
  for (void* mapping : mappings_) {
    if (mapping != nullptr &&
        ::msync(mapping, extent_size_bytes(), MS_SYNC) != 0) {
      return Status::IOError(std::string("msync: ") + std::strerror(errno));
    }
  }
  return journal_.Checkpoint(CurrentMetaState());
#endif
}

}  // namespace starfish
