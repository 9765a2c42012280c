// LineTable against std::unordered_map: seeded programs of insert, find,
// erase and operator[] must leave both maps with the same contents, across
// probe chains that wrap past the end of the slot array, backward shifts
// that move entries back across that end, and several rehashes.
#include "common/line_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace mb {
namespace {

/// Both maps hold the same (key, value) set; the table's walk (hash order)
/// is compared as a sorted list.
void expectSameContents(LineTable<std::uint64_t>& table,
                        const std::unordered_map<std::uint64_t, std::uint64_t>& ref) {
  ASSERT_EQ(table.size(), ref.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got, want(ref.begin(), ref.end());
  for (const auto& [k, v] : table) got.emplace_back(k, v);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  for (const auto& [k, v] : ref) {
    const std::uint64_t* found = table.find(k);
    ASSERT_NE(found, nullptr) << k;
    EXPECT_EQ(*found, v);
  }
}

/// Keys (line addresses) whose home slot is `slot` at `table`'s capacity.
std::vector<std::uint64_t> keysHomedAt(const LineTable<std::uint64_t>& table,
                                       std::size_t slot, std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t line = 1; out.size() < n; ++line)
    if (table.homeSlot(line * 64) == slot) out.push_back(line * 64);
  return out;
}

TEST(LineTable, StartsEmptyAndMissesEverything) {
  LineTable<int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(64), nullptr);
  EXPECT_EQ(t.count(64), 0u);
  EXPECT_FALSE(t.erase(64));
  EXPECT_FALSE(t.begin() != t.end());
}

TEST(LineTable, EmplaceKeepsTheFirstValueAndOperatorBracketDefaults) {
  LineTable<int> t;
  EXPECT_TRUE(t.emplace(64, 7).second);
  const auto again = t.emplace(64, 9);
  EXPECT_FALSE(again.second);
  EXPECT_EQ(*again.first, 7);
  EXPECT_EQ(t[128], 0);
  t[128] = 5;
  EXPECT_EQ(t.at(128), 5);
  EXPECT_EQ(t.size(), 2u);
}

TEST(LineTable, GrowsBeforeThreeQuartersLoad) {
  LineTable<int> t;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    t[i * 64] = static_cast<int>(i);
    EXPECT_LE(t.size() * 4, t.capacity() * 3);
  }
  EXPECT_EQ(t.capacity(), 2048u);  // 1000 entries fit under 3/4 of 2048
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(t.at(i * 64), static_cast<int>(i));
}

// A chain homed at the last slot wraps to slot 0; erasing its head shifts
// the wrapped members back across the end of the array.
TEST(LineTable, BackwardShiftAcrossTheArrayEnd) {
  LineTable<std::uint64_t> t;
  t[1] = 0;  // allocate the first 16 slots
  t.erase(1);
  ASSERT_EQ(t.capacity(), 16u);
  const std::size_t last = t.capacity() - 1;
  const auto wrapped = keysHomedAt(t, last, 4);
  const auto atZero = keysHomedAt(t, 0, 2);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  // Slots 15, 0, 1, 2 hold the wrapped chain; slot-0 keys land behind it.
  for (const std::uint64_t k : wrapped) ref[k] = t[k] = k + 1;
  for (const std::uint64_t k : atZero) ref[k] = t[k] = k + 2;
  ASSERT_EQ(t.capacity(), 16u);  // 6 entries: no rehash yet
  expectSameContents(t, ref);

  // Erase the chain's head (slot 15): every later member moves back one,
  // the first across the end.
  EXPECT_TRUE(t.erase(wrapped[0]));
  ref.erase(wrapped[0]);
  expectSameContents(t, ref);
  // A slot-0 key sits behind the chain; erasing one in the middle must not
  // pull a member before its home slot.
  EXPECT_TRUE(t.erase(atZero[0]));
  ref.erase(atZero[0]);
  expectSameContents(t, ref);
  for (const std::uint64_t k : wrapped) {
    EXPECT_EQ(t.erase(k), ref.erase(k) == 1);
    expectSameContents(t, ref);
  }
}

TEST(LineTable, SeededProgramsMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    LineTable<std::uint64_t> t;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    // A small key universe keeps chains long and erase/reinsert frequent;
    // growth phases push the table through several rehashes.
    const std::uint64_t universe = 64 + 512 * (seed % 4);
    std::size_t capacities = 0, lastCap = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = rng.nextBounded(universe) * 64;
      const std::uint64_t val = rng.nextU64();
      switch (rng.nextBounded(op < 10000 ? 5 : 4)) {
        case 0: {
          const auto got = t.emplace(key, val);
          const auto want = ref.emplace(key, val);
          ASSERT_EQ(got.second, want.second);
          ASSERT_EQ(*got.first, want.first->second);
          break;
        }
        case 1: {
          const std::uint64_t* got = t.find(key);
          const auto want = ref.find(key);
          ASSERT_EQ(got != nullptr, want != ref.end());
          if (got != nullptr) {
            ASSERT_EQ(*got, want->second);
          }
          break;
        }
        case 2:
          ASSERT_EQ(t.erase(key), ref.erase(key) == 1);
          break;
        default:
          t[key] += val;
          ref[key] += val;
          break;
      }
      ASSERT_EQ(t.size(), ref.size());
      if (t.capacity() != lastCap) {
        lastCap = t.capacity();
        ++capacities;
      }
    }
    EXPECT_GE(capacities, 4u) << "seed " << seed;
    expectSameContents(t, ref);
  }
}

}  // namespace
}  // namespace mb
