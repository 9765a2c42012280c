// Fixture: range-for over a LineTable walks it in slot order, which depends
// on the table's capacity history, so it must trip MB-DET-001.
// Fed to mbdetcheck --self-test; never compiled.
#include <cstdint>

#include "common/line_table.hpp"

std::uint64_t lastKey(mb::LineTable<int>& table) {
  std::uint64_t last = 0;
  for (const auto& e : table) last = e.first;
  return last;
}
