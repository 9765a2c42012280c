#include "cpu/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/rng.hpp"
#include "snapshot_forge.hpp"

namespace mb::cpu {
namespace {

TEST(Cache, GeometryDerivation) {
  Cache c(16 * kKiB, 4);
  EXPECT_EQ(c.numSets(), 64);  // 16 KB / 64 B / 4 ways
  EXPECT_EQ(c.associativity(), 4);
  EXPECT_EQ(c.validLineCount(), 0);
}

TEST(Cache, MissThenHit) {
  Cache c(16 * kKiB, 4);
  EXPECT_EQ(c.lookup(0x1000), nullptr);
  c.insert(0x1000, LineState::Shared);
  auto* line = c.lookup(0x1000);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, LineState::Shared);
}

TEST(Cache, LineGranularity) {
  Cache c(16 * kKiB, 4);
  c.insert(0x1000, LineState::Shared);
  // Any address within the same 64 B line hits.
  EXPECT_NE(c.lookup(0x103F), nullptr);
  EXPECT_EQ(c.lookup(0x1040), nullptr);
  EXPECT_EQ(c.lineBase(0x103F), 0x1000u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(4 * 64, 4);  // one set, 4 ways
  for (std::uint64_t i = 0; i < 4; ++i) c.insert(i * 64, LineState::Shared);
  (void)c.lookup(0);  // refresh line 0
  const auto ev = c.insert(4 * 64, LineState::Shared);
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, 64u);  // line 1 was the LRU
  EXPECT_NE(c.lookup(0), nullptr);
}

TEST(Cache, EvictionReportsDirtiness) {
  Cache c(64, 1);  // a single line
  c.insert(0, LineState::Modified);
  const auto ev = c.insert(4096, LineState::Shared);
  EXPECT_TRUE(ev.valid);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.addr, 0u);
  const auto ev2 = c.insert(8192, LineState::Shared);
  EXPECT_TRUE(ev2.valid);
  EXPECT_FALSE(ev2.dirty);
}

TEST(Cache, EvictionRebuildsFullAddress) {
  Cache c(16 * kKiB, 4);
  const std::uint64_t addr = 0xABCDEF00 & ~63ull;
  c.insert(addr, LineState::Modified);
  // Fill the set with conflicting lines (same set index, different tags).
  const std::uint64_t setStride = 64ull * static_cast<std::uint64_t>(c.numSets());
  Cache::Eviction ev;
  for (int i = 1; i <= 4; ++i) {
    ev = c.insert(addr + static_cast<std::uint64_t>(i) * setStride, LineState::Shared);
    if (ev.valid && ev.addr == addr) break;
  }
  EXPECT_TRUE(ev.valid);
  EXPECT_EQ(ev.addr, addr);
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(16 * kKiB, 4);
  c.insert(0x2000, LineState::Modified);
  bool dirty = false;
  EXPECT_TRUE(c.invalidate(0x2000, &dirty));
  EXPECT_TRUE(dirty);
  EXPECT_EQ(c.lookup(0x2000), nullptr);
  EXPECT_FALSE(c.invalidate(0x2000));
}

TEST(Cache, DowngradeModifiedReportsDirty) {
  Cache c(16 * kKiB, 4);
  c.insert(0x3000, LineState::Modified);
  EXPECT_TRUE(c.downgrade(0x3000));
  EXPECT_EQ(c.lookup(0x3000)->state, LineState::Shared);
  EXPECT_FALSE(c.downgrade(0x3000));  // already shared: not dirty
}

TEST(Cache, PeekDoesNotTouchLru) {
  Cache c(4 * 64, 4);
  for (std::uint64_t i = 0; i < 4; ++i) c.insert(i * 64, LineState::Shared);
  (void)c.peek(0);  // must NOT refresh line 0
  const auto ev = c.insert(4 * 64, LineState::Shared);
  EXPECT_EQ(ev.addr, 0u);  // line 0 evicted despite the peek
}

TEST(Cache, ValidLineCountTracksContents) {
  Cache c(16 * kKiB, 4);
  c.insert(0, LineState::Shared);
  c.insert(64, LineState::Exclusive);
  EXPECT_EQ(c.validLineCount(), 2);
  c.invalidate(0);
  EXPECT_EQ(c.validLineCount(), 1);
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(2 * 64 * 2, 2);  // 2 sets, 2 ways
  c.insert(0, LineState::Shared);     // set 0
  c.insert(64, LineState::Shared);    // set 1
  c.insert(128, LineState::Shared);   // set 0
  c.insert(192, LineState::Shared);   // set 1
  EXPECT_EQ(c.validLineCount(), 4);   // no evictions
}

// An invalid way keeps the tag it last held: the snapshot writes it, and a
// restored cache writes it again, byte for byte, while a probe for the old
// line still misses.
TEST(Cache, InvalidatedWayKeepsItsStaleTagThroughSaveLoad) {
  Cache c(2 * 64, 2);  // one set, two ways
  const std::uint64_t addr = 0x40000;
  c.insert(addr, LineState::Modified);
  ASSERT_TRUE(c.invalidate(addr));
  ckpt::Writer w;
  c.save(w);
  // u64 way count, then way 0: u64 tag (one set: tag = addr >> 6), u8 state.
  EXPECT_EQ(readU64At(w.str(), 8), addr >> 6);
  EXPECT_EQ(w.str()[16], static_cast<char>(LineState::Invalid));

  Cache back(2 * 64, 2);
  ckpt::Reader r(w.str());
  back.load(r);
  ASSERT_TRUE(r.ok() && r.atEnd());
  ckpt::Writer again;
  back.save(again);
  EXPECT_EQ(again.str(), w.str());
  EXPECT_EQ(back.lookup(addr), nullptr);
  EXPECT_EQ(back.validLineCount(), 0);
  // The invalid way is the victim, and displacing it evicts nothing.
  EXPECT_FALSE(back.insert(0x80000, LineState::Shared).valid);
}

// A tag must fit the geometry: with one set and 64-byte lines the address
// keeps 58 tag bits, so 1 << 58 (and the valid bit above it) fails the
// reader; a forged 1 << 63 on an invalid way would otherwise read as a
// valid line with tag 0.
TEST(Cache, LoadRejectsATagOutsideTheGeometry) {
  Cache c(2 * 64, 2);
  c.insert(0x40000, LineState::Shared);
  ckpt::Writer w;
  c.save(w);
  auto loads = [&](std::uint64_t tag) {
    std::string bytes = w.str();
    EXPECT_TRUE(forgeU64At(bytes, 8, tag));
    Cache back(2 * 64, 2);
    ckpt::Reader r(bytes);
    back.load(r);
    return r.ok() && r.atEnd();
  };
  EXPECT_TRUE(loads((std::uint64_t{1} << 58) - 1));
  EXPECT_FALSE(loads(std::uint64_t{1} << 58));
  EXPECT_FALSE(loads(std::uint64_t{1} << 63));
}

// Seeded insert/lookup/invalidate/downgrade programs against a plain
// per-way reference: hits, victims (the first invalid way, else the least
// recently used, lowest way on a tie) and write-back dirtiness all agree.
TEST(Cache, LruVictimMatchesAReferenceScan) {
  struct Way {
    bool valid = false;
    std::uint64_t addr = 0;
    std::uint64_t stamp = 0;
    bool dirty = false;
  };
  constexpr int kSets = 4, kWays = 4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cache c(kSets * kWays * 64, kWays);
    std::vector<Way> ref(kSets * kWays);
    std::uint64_t clock = 0;
    auto refFind = [&](std::uint64_t addr) -> Way* {
      const auto set = static_cast<int>((addr / 64) % kSets);
      for (int w = 0; w < kWays; ++w) {
        Way& way = ref[static_cast<size_t>(set * kWays + w)];
        if (way.valid && way.addr == addr) return &way;
      }
      return nullptr;
    };
    Rng rng(seed);
    for (int op = 0; op < 5000; ++op) {
      const std::uint64_t addr = rng.nextBounded(6 * kSets) * 64;
      Way* hit = refFind(addr);
      switch (rng.nextBounded(4)) {
        case 0: {  // lookup (touches LRU on a hit)
          ASSERT_EQ(c.lookup(addr) != nullptr, hit != nullptr) << op;
          if (hit != nullptr) hit->stamp = ++clock;
          break;
        }
        case 1: {  // invalidate (a probe that touches, then drops)
          bool dirty = false;
          ASSERT_EQ(c.invalidate(addr, &dirty), hit != nullptr) << op;
          if (hit != nullptr) {
            EXPECT_EQ(dirty, hit->dirty);
            hit->stamp = ++clock;
            hit->valid = false;
          }
          break;
        }
        case 2: {  // downgrade
          ASSERT_EQ(c.downgrade(addr), hit != nullptr && hit->dirty) << op;
          if (hit != nullptr) {
            hit->stamp = ++clock;
            hit->dirty = false;
          }
          break;
        }
        default: {  // insert when absent
          if (hit != nullptr) break;
          const bool write = rng.nextBool(0.5);
          const auto set = static_cast<int>((addr / 64) % kSets);
          Way* victim = nullptr;
          for (int w = 0; w < kWays && victim == nullptr; ++w)
            if (!ref[static_cast<size_t>(set * kWays + w)].valid)
              victim = &ref[static_cast<size_t>(set * kWays + w)];
          for (int w = 0; w < kWays && victim == nullptr; ++w) {
            Way& way = ref[static_cast<size_t>(set * kWays + w)];
            bool oldest = true;
            for (int v = 0; v < kWays; ++v)
              if (ref[static_cast<size_t>(set * kWays + v)].stamp < way.stamp) oldest = false;
            if (oldest) victim = &way;
          }
          ASSERT_NE(victim, nullptr);
          const auto ev =
              c.insert(addr, write ? LineState::Modified : LineState::Exclusive);
          ASSERT_EQ(ev.valid, victim->valid) << op;
          if (ev.valid) {
            EXPECT_EQ(ev.addr, victim->addr) << op;
            EXPECT_EQ(ev.dirty, victim->dirty) << op;
          }
          *victim = Way{true, addr, ++clock, write};
          break;
        }
      }
    }
    std::int64_t valid = 0;
    for (const Way& w : ref) valid += w.valid ? 1 : 0;
    EXPECT_EQ(c.validLineCount(), valid) << "seed " << seed;
  }
}

TEST(CacheDeath, NonPow2SizeAborts) {
  EXPECT_DEATH(Cache(100, 4), "check failed");
}

}  // namespace
}  // namespace mb::cpu
