// Committed golden-hash files for tests: one "name 0x<hex16>" line per
// entry, '#' comment lines, read and (under MB_UPDATE_GOLDEN=1) rewritten
// in place in the source tree.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mb::golden {

using Entries = std::vector<std::pair<std::string, std::uint64_t>>;

inline std::string hashLine(const std::string& name, std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, " 0x%016llx", static_cast<unsigned long long>(hash));
  return name + buf;
}

/// Entries in file order.
inline Entries readEntries(const std::string& path) {
  Entries out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    if (!(ls >> name >> hex)) continue;
    out.emplace_back(name, std::strtoull(hex.c_str(), nullptr, 16));
  }
  return out;
}

inline bool updating() {
  const char* v = std::getenv("MB_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) == "1";
}

/// Rewrite `path` under `header`: `updates` replace the values of keys the
/// file has, in place, and append the others, so one corpus sharing the
/// file never reorders another.
inline void rewrite(const std::string& path, const std::string& header,
                    const Entries& updates) {
  Entries entries = readEntries(path);
  for (const auto& u : updates) {
    bool found = false;
    for (auto& e : entries) {
      if (e.first != u.first) continue;
      e.second = u.second;
      found = true;
    }
    if (!found) entries.push_back(u);
  }
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot rewrite " << path;
  out << header;
  for (const auto& [name, hash] : entries) out << hashLine(name, hash) << '\n';
  std::printf("rewrote %s (%zu hashes updated)\n", path.c_str(), updates.size());
}

/// One "  name 0x...  (committed 0x...)" line per hash that is missing from
/// or differs from the committed file at `path`; empty when all match.
inline std::string mismatches(const std::string& path, const Entries& hashes) {
  const auto entries = readEntries(path);
  const std::map<std::string, std::uint64_t> committed(entries.begin(), entries.end());
  std::string out;
  for (const auto& [name, h] : hashes) {
    const auto it = committed.find(name);
    if (it == committed.end())
      out += "  " + hashLine(name, h) + "  (no committed hash)\n";
    else if (it->second != h)
      out += "  " + hashLine(name, h) + "  (committed" + hashLine("", it->second) + ")\n";
  }
  return out;
}

}  // namespace mb::golden
