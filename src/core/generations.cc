#include "core/generations.h"

#include <algorithm>
#include <filesystem>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/file_io.h"

namespace starfish {

namespace {

constexpr uint32_t kCatalogMagic = 0x54434653;  // "SFCT"
constexpr uint32_t kCatalogVersion = 3;

/// Name of generation `gen`, without the directory.
std::string GenerationName(uint64_t gen) {
  return "catalog." + std::to_string(gen) + ".sf";
}

/// Parses "catalog.<digits>.sf" into `*gen`; false for everything else
/// (including the retired "catalog.sf", which has no digits).
bool ParseGenerationName(const std::string& name, uint64_t* gen) {
  constexpr std::string_view kPrefix = "catalog.";
  constexpr std::string_view kSuffix = ".sf";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  const std::string digits = name.substr(
      kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  if (digits.empty() || digits.size() > 18 ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *gen = std::stoull(digits);
  return true;
}

}  // namespace

std::string CatalogGenerationPath(const std::string& dir, uint64_t gen) {
  return dir + "/" + GenerationName(gen);
}

std::string CurrentPath(const std::string& dir) { return dir + "/CURRENT"; }

Result<uint64_t> ReadCurrentGeneration(const std::string& dir, bool* found) {
  std::string bytes;
  STARFISH_RETURN_NOT_OK(ReadFileToString(CurrentPath(dir), &bytes, found));
  if (!*found) return {uint64_t{0}};
  while (!bytes.empty() && (bytes.back() == '\n' || bytes.back() == '\r')) {
    bytes.pop_back();
  }
  uint64_t gen = 0;
  if (!ParseGenerationName(bytes, &gen)) {
    // CURRENT is tiny and written atomically; garbage here is damage, and
    // guessing a generation would silently time-travel the store.
    return Status::Corruption("unparseable CURRENT in " + dir + ": '" +
                              bytes + "'");
  }
  return gen;
}

Status CommitCurrentGeneration(const std::string& dir, uint64_t gen) {
  return WriteFileAtomic(CurrentPath(dir), GenerationName(gen) + "\n");
}

std::vector<uint64_t> ListCatalogGenerations(const std::string& dir) {
  std::vector<uint64_t> gens;
  // Manual increment with an error_code: the range-for ++ throws on a
  // mid-scan I/O error; this listing degrades to "fewer candidates"
  // instead (the checksummed resolution rejects anything misread).
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    uint64_t gen = 0;
    if (ParseGenerationName(it->path().filename().string(), &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

void RemoveCatalogGenerationsExcept(const std::string& dir,
                                    const std::vector<uint64_t>& keep) {
  for (uint64_t gen : ListCatalogGenerations(dir)) {
    if (std::find(keep.begin(), keep.end(), gen) != keep.end()) continue;
    std::error_code ec;
    std::filesystem::remove(CatalogGenerationPath(dir, gen), ec);
  }
}

Result<CatalogFile> ReadCatalogFile(const std::string& path) {
  std::string bytes;
  bool found = false;
  STARFISH_RETURN_NOT_OK(ReadFileToString(path, &bytes, &found));
  if (!found) return Status::NotFound("no catalog at " + path);

  std::string_view in(bytes);
  uint32_t magic = 0, version = 0;
  if (!GetFixed32(&in, &magic) || magic != kCatalogMagic ||
      !GetFixed32(&in, &version)) {
    return Status::Corruption("bad catalog magic in " + path);
  }
  if (version != kCatalogVersion) {
    return Status::Corruption("unsupported catalog version in " + path);
  }
  CatalogFile file;
  if (!GetFixed64(&in, &file.generation) || in.size() < 4) {
    return Status::Corruption("truncated catalog in " + path);
  }
  const std::string_view body = in.substr(0, in.size() - 4);
  std::string_view crc_view = in.substr(in.size() - 4);
  uint32_t stored_crc = 0;
  GetFixed32(&crc_view, &stored_crc);
  const std::string_view framed(bytes.data(), bytes.size() - 4);
  if (Crc32(framed) != stored_crc) {
    return Status::Corruption("catalog checksum mismatch in " + path);
  }
  file.payload.assign(body.data(), body.size());
  return file;
}

std::string EncodeCatalogFile(uint64_t generation, std::string_view payload) {
  std::string bytes;
  PutFixed32(&bytes, kCatalogMagic);
  PutFixed32(&bytes, kCatalogVersion);
  PutFixed64(&bytes, generation);
  bytes.append(payload.data(), payload.size());
  PutFixed32(&bytes, Crc32(bytes));
  return bytes;
}

Status ResolveCommittedCatalog(const std::string& dir, ResolvedCatalog* out) {
  *out = ResolvedCatalog{};
  bool current_found = false;
  STARFISH_ASSIGN_OR_RETURN(out->current,
                            ReadCurrentGeneration(dir, &current_found));
  out->generations = ListCatalogGenerations(dir);
  uint64_t max_seen = out->generations.empty() ? 0 : out->generations.back();
  if (current_found) max_seen = std::max(max_seen, out->current);
  out->next_generation = max_seen + 1;
  if (!current_found) {
    // A pre-generation store keeps its only catalog in "catalog.sf". That
    // format is retired; opening the directory as fresh would reclaim every
    // page it holds, so refuse before anyone touches the volume.
    const std::string retired = dir + "/catalog.sf";
    std::error_code ec;
    const bool present = std::filesystem::exists(retired, ec);
    if (ec) return Status::IOError("stat " + retired + ": " + ec.message());
    if (present) {
      return Status::NotSupported("retired pre-generation catalog " +
                                  retired + " without CURRENT");
    }
    return Status::OK();
  }
  out->any_committed = true;

  std::vector<uint64_t> candidates{out->current};
  for (auto it = out->generations.rbegin(); it != out->generations.rend();
       ++it) {
    // Generations above CURRENT were written but never committed (a crash
    // between the catalog write and the CURRENT repoint): leftovers, never
    // load candidates.
    if (*it < out->current) candidates.push_back(*it);
  }
  for (uint64_t candidate : candidates) {
    const std::string path = CatalogGenerationPath(dir, candidate);
    auto file_or = ReadCatalogFile(path);
    if (file_or.ok() && file_or.value().generation == candidate) {
      out->loaded = candidate;
      out->fallback = candidate != out->current;
      out->file = std::move(file_or).value();
      return Status::OK();
    }
    out->rejected.push_back(
        GenerationName(candidate) + ": " +
        (file_or.ok() ? "generation number mismatch in " + path
                      : file_or.status().ToString()));
  }
  return Status::Corruption(
      "no loadable catalog generation in " + dir + " (CURRENT names " +
      std::to_string(out->current) + "): " +
      (out->rejected.empty() ? "none on disk" : out->rejected.back()));
}

}  // namespace starfish
