// ResultCache: store/lookup round-trip, corruption rejection, atomicity of
// the entry format, flush, and key sensitivity.
#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "temp_path.hpp"

namespace mb::serve {
namespace {

std::string tempDir(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = testTempPath(std::string("mb_result_cache_") + info->name() + "_" +
                                 name);
  std::remove(dir.c_str());
  return dir;
}

TEST(ResultCache, RoundTrip) {
  ResultCache cache(tempDir("rt"));
  ASSERT_TRUE(cache.ok());
  cache.flush();  // the temp dir may hold entries from a previous run
  const std::uint64_t key = ResultCache::resultKey(0x1234, "429.mcf", 7, 0, "v1");
  EXPECT_FALSE(cache.lookup(key).has_value());
  const std::string report = "{\"workload\":\"429.mcf\",\"systemIpc\":0.5}";
  ASSERT_TRUE(cache.store(key, report));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, report);  // byte identity, not just semantic equality
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.stores, 1);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, KeyCoversEveryComponent) {
  const std::uint64_t base = ResultCache::resultKey(1, "a", 2, 3, "v");
  EXPECT_NE(base, ResultCache::resultKey(9, "a", 2, 3, "v"));  // config
  EXPECT_NE(base, ResultCache::resultKey(1, "b", 2, 3, "v"));  // workload
  EXPECT_NE(base, ResultCache::resultKey(1, "a", 9, 3, "v"));  // seed
  EXPECT_NE(base, ResultCache::resultKey(1, "a", 2, 9, "v"));  // warmup
  EXPECT_NE(base, ResultCache::resultKey(1, "a", 2, 3, "w"));  // sim version
  EXPECT_EQ(base, ResultCache::resultKey(1, "a", 2, 3, "v"));  // stable
}

TEST(ResultCache, CorruptEntryIsCountedMiss) {
  const std::string dir = tempDir("corrupt");
  ResultCache cache(dir);
  ASSERT_TRUE(cache.ok());
  const std::uint64_t key = ResultCache::resultKey(1, "a", 2, 0, "v");
  ASSERT_TRUE(cache.store(key, "payload-bytes"));

  // Flip one payload byte on disk: the CRC must reject the entry.
  std::string path;
  {
    ASSERT_EQ(cache.entries(), 1u);
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.mbr",
                  static_cast<unsigned long long>(key));
    path = dir + "/" + name;
  }
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  content[content.size() - 1] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1);

  // Truncated header (torn write) is rejected the same way.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "MBRES1 0";
  }
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 2);

  // Re-storing heals the entry.
  ASSERT_TRUE(cache.store(key, "payload-bytes"));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload-bytes");
}

TEST(ResultCache, FlushRemovesEverything) {
  ResultCache cache(tempDir("flush"));
  ASSERT_TRUE(cache.ok());
  for (std::uint64_t k = 1; k <= 5; ++k)
    ASSERT_TRUE(cache.store(ResultCache::resultKey(k, "a", 0, 0, "v"), "x"));
  EXPECT_EQ(cache.entries(), 5u);
  EXPECT_EQ(cache.flush(), 5u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.lookup(ResultCache::resultKey(1, "a", 0, 0, "v")).has_value());
}

TEST(ResultCache, StoreOverwritesAtomically) {
  ResultCache cache(tempDir("overwrite"));
  ASSERT_TRUE(cache.ok());
  const std::uint64_t key = ResultCache::resultKey(1, "a", 0, 0, "v");
  ASSERT_TRUE(cache.store(key, "first"));
  ASSERT_TRUE(cache.store(key, "second"));
  EXPECT_EQ(cache.entries(), 1u);  // no tmp litter, no duplicates
  EXPECT_EQ(*cache.lookup(key), "second");
}

TEST(ResultCache, UncreatableDirReportsNotOk) {
  ResultCache cache("/nonexistent-root/nested/cache");
  EXPECT_FALSE(cache.ok());
}

}  // namespace
}  // namespace mb::serve
