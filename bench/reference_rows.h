#pragma once

// The one reader of committed BENCH_*.json references, shared by the bench
// gates (bench_hotpath_buffer --compare, bench_mt_read --compare-hotpath,
// bench_outofcore --compare). The benches write one JSON row per line, so
// a row is any line carrying every key field as a string and the value
// field as a number.
//
// A gate must never pass against nothing: a reference that cannot be read,
// or that yields no rows at all, exits 1 here, and each gate exits 1 when
// none of its own rows found a match.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace starfish {
namespace bench {

/// The string value of `"field": "..."` in `line`; false when absent.
inline bool FindJsonString(const std::string& line, const std::string& field,
                           std::string* out) {
  const std::string key = "\"" + field + "\": \"";
  const size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const size_t begin = at + key.size();
  const size_t end = line.find('"', begin);
  if (end == std::string::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

/// The numeric value of `"field": N` in `line`; false when absent or not a
/// number.
inline bool FindJsonNumber(const std::string& line, const std::string& field,
                           double* out) {
  const std::string key = "\"" + field + "\": ";
  const size_t at = line.find(key);
  if (at == std::string::npos) return false;
  const char* begin = line.c_str() + at + key.size();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end != begin;
}

/// Rows of the reference at `path`: the `key_fields` values joined by '@'
/// -> the `value_field` number. Exits 1 (messages prefixed with `tool`)
/// when the file is unreadable or holds no such row.
inline std::map<std::string, double> ReadReferenceRows(
    const char* tool, const std::string& path,
    const std::vector<std::string>& key_fields,
    const std::string& value_field) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot read %s\n", tool, path.c_str());
    std::exit(1);
  }
  std::map<std::string, double> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::string key;
    bool complete = true;
    for (size_t i = 0; i < key_fields.size() && complete; ++i) {
      std::string part;
      complete = FindJsonString(line, key_fields[i], &part);
      key += (i == 0 ? "" : "@") + part;
    }
    double value = 0;
    if (complete && FindJsonNumber(line, value_field, &value)) {
      rows[key] = value;
    }
  }
  if (rows.empty()) {
    std::fprintf(stderr, "%s: no rows with '%s' in %s\n", tool,
                 value_field.c_str(), path.c_str());
    std::exit(1);
  }
  return rows;
}

}  // namespace bench
}  // namespace starfish
