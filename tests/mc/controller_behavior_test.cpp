// Behavioral tests for memory-controller mechanisms that the basic
// controller tests do not cover: write-drain hysteresis, the
// scheduler-visible window with overflow, PAR-BS inter-thread fairness,
// and the minimalist-open policy in situ.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "mc/controller.hpp"
#include "mc/command_log.hpp"

namespace mb::mc {
namespace {

dram::Geometry testGeometry() {
  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.capacityBytes = 4 * kGiB;
  return g;
}

class ControllerBehaviorTest : public ::testing::Test {
 protected:
  void build(ControllerConfig cfg = {}) {
    geom_ = testGeometry();
    map_.emplace(core::AddressMap::pageInterleaved(geom_));
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    mc_.emplace(0, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
                *map_, cfg, eq_);
  }

  Tick read(std::uint64_t addr, ThreadId thread = 0) {
    MemRequest r;
    r.addr = addr;
    r.thread = thread;
    const size_t idx = done_.size();
    done_.push_back(-1);
    r.onComplete = [this, idx](Tick when) { done_[idx] = when; };
    mc_->enqueue(std::move(r));
    return static_cast<Tick>(idx);
  }

  void write(std::uint64_t addr, ThreadId thread = 0) {
    MemRequest r;
    r.addr = addr;
    r.write = true;
    r.thread = thread;
    mc_->enqueue(std::move(r));
  }

  std::uint64_t lineOf(int bank, std::int64_t row, std::int64_t col = 0) {
    core::DramAddress da;
    da.bank = bank;
    da.row = row;
    da.column = col;
    return map_->compose(da);
  }

  EventQueue eq_;
  dram::Geometry geom_;
  std::optional<core::AddressMap> map_;
  std::optional<MemoryController> mc_;
  std::vector<Tick> done_;
};

TEST_F(ControllerBehaviorTest, WritesDrainEventuallyEvenWithoutReads) {
  build();
  for (int i = 0; i < 10; ++i) write(lineOf(i % 8, i));
  eq_.run();
  EXPECT_EQ(mc_->outstanding(), 0);
  EXPECT_EQ(mc_->energyMeter().casOps(), 10);
}

TEST_F(ControllerBehaviorTest, WriteHighWatermarkForcesDrainUnderReadLoad) {
  ControllerConfig cfg;
  cfg.writeHighWatermark = 8;
  cfg.writeLowWatermark = 2;
  build(cfg);
  // Saturate with reads while pushing writes past the watermark: the drain
  // must interleave and finish everything.
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    read(lineOf(static_cast<int>(rng.nextBounded(8)), i + 100));
    write(lineOf(static_cast<int>(rng.nextBounded(8)), i + 500));
  }
  eq_.run();
  EXPECT_EQ(mc_->outstanding(), 0);
  for (Tick t : done_) EXPECT_GE(t, 0);
}

TEST_F(ControllerBehaviorTest, OverflowWindowServesBeyondQueueDepth) {
  ControllerConfig cfg;
  cfg.queueDepth = 4;  // tiny visible window
  build(cfg);
  for (int i = 0; i < 40; ++i) read(lineOf(i % 8, i));
  EXPECT_GT(mc_->outstanding(), 4);
  eq_.run();
  EXPECT_EQ(mc_->outstanding(), 0);
  for (Tick t : done_) EXPECT_GE(t, 0);
}

TEST_F(ControllerBehaviorTest, ParBsBoundsHogPenaltyOnLightThread) {
  // Thread 0 floods one bank with row hits; thread 1 sends one conflicting
  // request. Under PAR-BS the batch boundary must let thread 1 through
  // before the entire flood drains.
  ControllerConfig cfg;
  cfg.scheduler = SchedulerKind::ParBs;
  build(cfg);
  for (int i = 0; i < 30; ++i) read(lineOf(0, 1, i % 32), /*thread=*/0);
  const auto lightIdx = static_cast<size_t>(read(lineOf(0, 2), /*thread=*/1));
  eq_.run();
  // The light request must not be the globally last one serviced.
  Tick maxDone = 0;
  for (Tick t : done_) maxDone = std::max(maxDone, t);
  EXPECT_LT(done_[lightIdx], maxDone);
}

TEST_F(ControllerBehaviorTest, MinimalistOpenClosesAfterBudget) {
  ControllerConfig cfg;
  cfg.pagePolicy = core::PolicyKind::MinimalistOpen;
  build(cfg);
  // Five hits to one row, spaced out so each triggers a speculative
  // decision; after the budget (4) the policy closes the row, so a later
  // access to the same row is a miss, not a hit.
  for (int i = 0; i < 6; ++i) {
    read(lineOf(0, 1, i));
    eq_.run();
    eq_.runUntil(eq_.now() + us(1));
  }
  const auto s = mc_->stats();
  EXPECT_GT(s.rowMisses, 1);  // the re-activation after the budget closes
  EXPECT_GT(s.rowHits, 2);
}

TEST_F(ControllerBehaviorTest, PerBankRefreshKeepsServingOtherBanks) {
  ControllerConfig cfg;
  cfg.refreshEnabled = true;
  cfg.perBankRefresh = true;
  cfg.enableTimingCheck = true;
  geom_ = testGeometry();
  map_.emplace(core::AddressMap::pageInterleaved(geom_));
  mc_.emplace(0, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
              *map_, cfg, eq_);
  // Run past several refresh intervals with steady traffic.
  for (int burst = 0; burst < 30; ++burst) {
    for (int b = 0; b < 4; ++b) read(lineOf(b, burst));
    eq_.run();
    eq_.runUntil(eq_.now() + us(3));
  }
  EXPECT_EQ(mc_->outstanding(), 0);
  EXPECT_GT(mc_->stats().refreshes, 0);
  for (Tick t : done_) EXPECT_GE(t, 0);
}

TEST_F(ControllerBehaviorTest, CommandTraceObservesEveryCommit) {
  CommandLogRecorder log{CmdTraceConfig{}};
  ControllerConfig cfg;
  cfg.commandLog = &log;
  build(cfg);
  read(lineOf(0, 1));
  read(lineOf(0, 2));  // conflict: PRE + ACT + RD
  eq_.run();
  int acts = 0, cas = 0, pres = 0;
  for (const CmdEvent& ev : log.trace().events) {
    if (ev.kind == CmdEventKind::Act) ++acts;
    if (ev.kind == CmdEventKind::Read || ev.kind == CmdEventKind::Write) ++cas;
    if (ev.kind == CmdEventKind::Pre) ++pres;
  }
  EXPECT_EQ(acts, 2);
  EXPECT_EQ(cas, 2);
  EXPECT_EQ(pres, 1);
}

}  // namespace
}  // namespace mb::mc
