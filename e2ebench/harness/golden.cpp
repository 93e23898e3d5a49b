#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "harness.hpp"

namespace msb {

namespace {

// Regenerate with `mstream_e2ebench --emit-golden e2ebench/harness/golden.inc`
// (see README.md); only when a change is meant to move virtual results.
GoldenEntry g_table[] = {
#include "golden.inc"
};

std::unordered_map<std::string, GoldenEntry*>& index() {
  static std::unordered_map<std::string, GoldenEntry*> idx = [] {
    std::unordered_map<std::string, GoldenEntry*> m;
    for (GoldenEntry& e : g_table) m.emplace(e.name, &e);
    return m;
  }();
  return idx;
}

}  // namespace

const GoldenEntry* find_golden(const std::string& name) {
  const auto it = index().find(name);
  return it == index().end() ? nullptr : it->second;
}

bool corrupt_golden(const std::string& name) {
  const auto it = index().find(name);
  if (it == index().end()) return false;
  it->second->vms = std::bit_cast<double>(std::bit_cast<std::uint64_t>(it->second->vms) ^ 1u);
  return true;
}

bool corrupt_golden_actions(const std::string& name) {
  const auto it = index().find(name);
  if (it == index().end()) return false;
  ++it->second->actions;
  return true;
}

}  // namespace msb
