#include "cpu/hierarchy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "snapshot_forge.hpp"

namespace mb::cpu {
namespace {

// A hierarchy over real controllers with a tiny geometry, so DRAM responses
// flow through the full event-driven path.
class HierarchyTest : public ::testing::Test {
 protected:
  void build(int numCores = 8, int coresPerCluster = 4) {
    geom_.channels = 2;
    geom_.ranksPerChannel = 2;
    geom_.banksPerRank = 8;
    geom_.capacityBytes = 8 * kGiB;
    map_.emplace(core::AddressMap::pageInterleaved(geom_));
    mc::ControllerConfig cfg;
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    for (int ch = 0; ch < geom_.channels; ++ch) {
      mcs_.push_back(std::make_unique<mc::MemoryController>(
          ch, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(), *map_,
          cfg, eq_));
    }
    hcfg_.numCores = numCores;
    hcfg_.coresPerCluster = coresPerCluster;
    hier_ = std::make_unique<MemoryHierarchy>(hcfg_, mcs_, eq_);
  }

  /// Synchronous-style access helper: runs the event queue until completion.
  Tick access(CoreId core, std::uint64_t addr, bool write) {
    Tick result = -1;
    const auto r = hier_->access(core, addr, write, eq_.now(),
                                 [&](Tick when) { result = when; });
    if (r.immediate) return eq_.now() + r.latency;
    eq_.run();
    EXPECT_GE(result, 0) << "access never completed";
    return result;
  }

  /// Save the hierarchy, apply `forge` to the bytes, and load them into a
  /// fresh hierarchy of the same shape; returns whether the reader stayed ok.
  template <class Forge, class Wire = void (*)(MemoryHierarchy&)>
  bool restoreForged(Forge&& forge, Wire&& wire = [](MemoryHierarchy&) {}) {
    ckpt::Writer w;
    hier_->save(w);
    std::string bytes = w.take();
    EXPECT_TRUE(forge(bytes)) << "anchor not found in the saved stream";
    MemoryHierarchy fresh(hcfg_, mcs_, eq_);
    wire(fresh);
    ckpt::Reader r(bytes);
    fresh.load(r);
    return r.ok();
  }

  EventQueue eq_;
  dram::Geometry geom_;
  std::optional<core::AddressMap> map_;
  std::vector<std::unique_ptr<mc::MemoryController>> mcs_;
  HierarchyConfig hcfg_;
  std::unique_ptr<MemoryHierarchy> hier_;
};

TEST_F(HierarchyTest, ColdReadGoesToDram) {
  build();
  access(0, 0x100000, false);
  EXPECT_EQ(hier_->stats().dramReads, 1);
  EXPECT_EQ(hier_->stats().l1Hits, 0);
}

TEST_F(HierarchyTest, SecondReadHitsL1) {
  build();
  access(0, 0x100000, false);
  const auto r = hier_->access(0, 0x100000, false, eq_.now(), nullptr);
  EXPECT_TRUE(r.immediate);
  EXPECT_EQ(r.latency, static_cast<Tick>(hcfg_.l1LatCycles) * hcfg_.cyclePs);
  EXPECT_EQ(hier_->stats().l1Hits, 1);
  EXPECT_EQ(hier_->stats().dramReads, 1);
}

TEST_F(HierarchyTest, SiblingCoreHitsSharedL2) {
  build();
  access(0, 0x100000, false);
  const auto r = hier_->access(1, 0x100000, false, eq_.now(), nullptr);
  EXPECT_TRUE(r.immediate);  // L2 hit, no DRAM
  EXPECT_EQ(hier_->stats().l2Hits, 1);
  EXPECT_EQ(hier_->stats().dramReads, 1);
}

TEST_F(HierarchyTest, RemoteClusterReadIsCacheToCache) {
  build();
  access(0, 0x100000, false);   // cluster 0 now has the line
  access(4, 0x100000, false);   // core 4 = cluster 1
  EXPECT_EQ(hier_->stats().c2cTransfers, 1);
  EXPECT_EQ(hier_->stats().dramReads, 1);  // served from the sharer
}

TEST_F(HierarchyTest, RemoteDirtyReadWritesBack) {
  build();
  access(0, 0x100000, true);   // cluster 0 holds it Modified
  access(4, 0x100000, false);  // remote read
  EXPECT_EQ(hier_->stats().c2cTransfers, 1);
  EXPECT_EQ(hier_->stats().dramWrites, 1);  // M -> S writeback
}

TEST_F(HierarchyTest, WriteInvalidatesRemoteSharers) {
  build();
  access(0, 0x100000, false);
  access(4, 0x100000, false);  // two clusters share the line
  access(0, 0x100000, true);   // upgrade in cluster 0
  EXPECT_GE(hier_->stats().invalidations, 1);
  // Cluster 1 must re-fetch.
  const auto before = hier_->stats().c2cTransfers;
  access(4, 0x100000, false);
  EXPECT_GT(hier_->stats().c2cTransfers + hier_->stats().dramReads,
            before + 1);  // either path re-acquires the line
}

TEST_F(HierarchyTest, PostedStoreCompletesImmediatelyButFetches) {
  build();
  const auto r = hier_->access(0, 0x200000, true, eq_.now(), nullptr);
  EXPECT_TRUE(r.immediate);  // posted
  eq_.run();
  EXPECT_EQ(hier_->stats().dramReads, 1);  // fetch-for-ownership happened
}

TEST_F(HierarchyTest, StoreWithCallbackReportsFillCompletion) {
  build();
  Tick done = -1;
  const auto r =
      hier_->access(0, 0x200000, true, eq_.now(), [&](Tick when) { done = when; });
  EXPECT_FALSE(r.immediate);
  eq_.run();
  EXPECT_GT(done, 0);
}

TEST_F(HierarchyTest, ConcurrentMissesToSameLineMerge) {
  build();
  int completions = 0;
  hier_->access(0, 0x300000, false, eq_.now(), [&](Tick) { ++completions; });
  hier_->access(1, 0x300000, false, eq_.now(), [&](Tick) { ++completions; });
  eq_.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(hier_->stats().dramReads, 1);  // one fill serves both (MSHR merge)
}

TEST_F(HierarchyTest, CapacityEvictionWritesDirtyLinesBack) {
  build(1, 1);  // one core, small L1, one 2 MB L2
  // Write far more distinct lines than the L2 holds.
  const std::int64_t lines = (hcfg_.l2Bytes / 64) * 2;
  for (std::int64_t i = 0; i < lines; ++i) {
    hier_->access(0, static_cast<std::uint64_t>(i) * 64, true, eq_.now(), nullptr);
    if (i % 1024 == 0) eq_.run();
  }
  eq_.run();
  EXPECT_GT(hier_->stats().dramWrites, lines / 4);
}

TEST_F(HierarchyTest, LatencyOrdering) {
  build();
  // L1 hit < L2 hit < DRAM.
  const Tick dram = access(0, 0x400000, false) - eq_.now();
  const auto l1 = hier_->access(0, 0x400000, false, eq_.now(), nullptr);
  const auto l2 = hier_->access(1, 0x400000, false, eq_.now(), nullptr);
  EXPECT_TRUE(l1.immediate);
  EXPECT_TRUE(l2.immediate);
  EXPECT_LT(l1.latency, l2.latency);
  EXPECT_LT(l2.latency, dram + l2.latency);  // DRAM path took an event round trip
}

TEST_F(HierarchyTest, StatsAccessCountsEverything) {
  build();
  access(0, 0x1000, false);
  access(0, 0x1000, false);
  access(0, 0x2000, true);
  EXPECT_EQ(hier_->stats().accesses, 3);
}

// Hostile snapshots: every index a HIER section carries is range-checked on
// load, so a forged one fails the reader (MB-CKP-012 at the system level)
// instead of reaching an array. Lines sit at a distinctive address so the
// forge can find the record that holds it; each test also restores the
// unforged bytes to show the record itself is accepted.
constexpr std::uint64_t kLine = 0x1D5A5A5C0;

TEST_F(HierarchyTest, RestoreRejectsAWaiterTagBeyondTheRob) {
  build();
  // A load waiting on ROB slot 40 of a 32-entry ROB.
  hier_->access(0, kLine, false, eq_.now(), [](Tick) {}, 40);
  auto wire = [](int tagLimit) {
    return [tagLimit](MemoryHierarchy& h) {
      h.waiterResolver = [](CoreId, int) { return mc::CompletionFn([](Tick) {}); };
      h.waiterTagLimit = tagLimit;
    };
  };
  EXPECT_TRUE(restoreForged([](std::string&) { return true; }, wire(64)));
  EXPECT_FALSE(restoreForged([](std::string&) { return true; }, wire(32)));
}

TEST_F(HierarchyTest, RestoreRejectsAWaiterCoreOutOfRange) {
  build();
  hier_->access(3, kLine, true, eq_.now(), nullptr);  // posted store: no callback
  // Pending fill: i64 key (== kLine for cluster 0), b, b, u64 count, i32 core.
  auto waiterCore = [](std::int32_t core) {
    return [core](std::string& b) { return forgeI32After(b, kLine, 18, core); };
  };
  EXPECT_TRUE(restoreForged(waiterCore(7)));
  EXPECT_FALSE(restoreForged(waiterCore(8)));
}

TEST_F(HierarchyTest, RestoreRejectsATransitCoreOutOfRange) {
  build();
  hier_->access(3, kLine, true, eq_.now(), nullptr);  // in flight to the MC
  // The transit is the last record naming the line: u64 lineAddr, i32 core.
  auto transitCore = [](std::int32_t core) {
    return [core](std::string& b) { return forgeI32After(b, kLine, 8, core, true); };
  };
  EXPECT_TRUE(restoreForged(transitCore(7)));
  EXPECT_FALSE(restoreForged(transitCore(8)));
  EXPECT_FALSE(restoreForged(transitCore(-1)));
}

TEST_F(HierarchyTest, RestoreRejectsADirectoryOwnerOutOfRange) {
  build();
  hier_->setFunctionalMode(true);
  hier_->warmAccess(0, kLine, true);  // cluster 0 now owns the line
  // Directory entry: i64 key (== kLine), u32 sharers, i32 owner cluster.
  auto owner = [](std::int32_t cluster) {
    return [cluster](std::string& b) { return forgeI32After(b, kLine, 12, cluster); };
  };
  EXPECT_TRUE(restoreForged(owner(-1)));
  EXPECT_TRUE(restoreForged(owner(1)));
  EXPECT_FALSE(restoreForged(owner(2)));
}

TEST(HierarchyConfig, ClusterMath) {
  HierarchyConfig c;
  EXPECT_EQ(c.numClusters(), 16);
  c.numCores = 8;
  c.coresPerCluster = 4;
  EXPECT_EQ(c.numClusters(), 2);
}

}  // namespace
}  // namespace mb::cpu
