#include "mc/controller.hpp"
#include "mc/command_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/restore.hpp"
#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "snapshot_forge.hpp"

namespace mb::mc {
namespace {

dram::Geometry testGeometry(int nW = 1, int nB = 1) {
  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.ubank = {nW, nB};
  g.capacityBytes = 4 * kGiB;
  return g;
}

class ControllerTest : public ::testing::Test {
 protected:
  void build(int nW = 1, int nB = 1,
             core::PolicyKind policy = core::PolicyKind::Open,
             SchedulerKind sched = SchedulerKind::ParBs, int iB = -1) {
    geom_ = testGeometry(nW, nB);
    map_.emplace(iB < 0 ? core::AddressMap::pageInterleaved(geom_)
                        : core::AddressMap(geom_, iB));
    ControllerConfig cfg;
    cfg.pagePolicy = policy;
    cfg.scheduler = sched;
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    cfg.commandLog = &log_;
    log_.trace().events.clear();
    mc_.emplace(0, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
                *map_, cfg, eq_);
  }

  /// Enqueue a read; returns the index of its completion slot in done_.
  size_t read(std::uint64_t addr, ThreadId thread = 0) {
    MemRequest r;
    r.addr = addr;
    r.thread = thread;
    const size_t idx = done_.size();
    done_.push_back(-1);
    r.onComplete = [this, idx](Tick when) { done_[idx] = when; };
    mc_->enqueue(std::move(r));
    return idx;
  }

  void write(std::uint64_t addr, ThreadId thread = 0) {
    MemRequest r;
    r.addr = addr;
    r.write = true;
    r.thread = thread;
    mc_->enqueue(std::move(r));
  }

  /// Address of (row, column) within channel 0, bank 0, μbank 0, rank 0.
  std::uint64_t rowAddr(std::int64_t row, std::int64_t col = 0) {
    core::DramAddress da;
    da.row = row;
    da.column = col;
    return map_->compose(da);
  }

  /// Address of `row` in `bank` (channel 0, rank 0, μbank 0, column 0).
  std::uint64_t bankAddr(int bank, std::int64_t row) {
    core::DramAddress da;
    da.bank = bank;
    da.row = row;
    return map_->compose(da);
  }

  /// Opens row 1 of bank 0 and row 5 of bank 1, starts recording bank-0
  /// commands, and posts a write to bank 1 whose turnaround stalls rank-0
  /// reads. Returns the write's tick.
  Tick openRowsAndStallReads() {
    build();
    read(bankAddr(0, 1));
    read(bankAddr(1, 5));
    eq_.run();
    recordFrom_ = log_.trace().events.size();
    const Tick t0 = eq_.now();
    write(bankAddr(1, 5));
    return t0;
  }

  /// Rank-0 bank-0 commands committed since recordFrom_, in issue order.
  std::vector<DramCommand> bank0Commands() const {
    std::vector<DramCommand> out;
    const auto& events = log_.trace().events;
    for (std::size_t i = recordFrom_; i < events.size(); ++i) {
      const CmdEvent& ev = events[i];
      if (ev.kind <= CmdEventKind::Write && ev.bank == 0 && ev.rank == 0)
        out.push_back(static_cast<DramCommand>(ev.kind));
    }
    return out;
  }

  /// Enqueues a read `delay` after `t0` (a later arrival than anything
  /// enqueued directly at t0); `slot` receives its done_ index when it runs.
  void readLater(Tick t0, Tick delay, std::uint64_t addr, ThreadId thread,
                 size_t& slot) {
    eq_.scheduleAt(t0 + delay,
                   [this, addr, thread, &slot] { slot = read(addr, thread); });
  }

  EventQueue eq_;
  dram::Geometry geom_;
  std::optional<core::AddressMap> map_;
  std::optional<MemoryController> mc_;
  std::vector<Tick> done_;
  CommandLogRecorder log_{CmdTraceConfig{}};  // every committed command
  std::size_t recordFrom_ = 0;  // first event bank0Commands() reports
};

TEST_F(ControllerTest, SingleReadCompletesWithMissLatency) {
  build();
  const auto t = dram::TimingParams::tsi();
  const size_t r = read(rowAddr(1));
  eq_.run();
  // Empty bank: ACT + tRCD + CAS + tAA + tBURST.
  EXPECT_EQ(done_[r], t.tRCD + t.tAA + t.tBURST);
  const auto s = mc_->stats();
  EXPECT_EQ(s.reads, 1);
  EXPECT_EQ(s.rowMisses, 1);
  EXPECT_EQ(s.rowHits, 0);
}

TEST_F(ControllerTest, SecondReadSameRowIsRowHit) {
  build();
  read(rowAddr(1, 0));
  eq_.run();
  read(rowAddr(1, 5));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowHits, 1);
  EXPECT_EQ(s.rowMisses, 1);
}

TEST_F(ControllerTest, ConflictRequiresPrecharge) {
  build();
  read(rowAddr(1));
  eq_.run();
  const size_t r = read(rowAddr(2));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowConflicts, 1);
  // Conflict latency is at least tRP + tRCD + tAA + tBURST after arrival,
  // and the PRE itself had to wait for tRAS from the first activate.
  EXPECT_GT(done_[r], dram::TimingParams::tsi().conflictLatency());
}

TEST_F(ControllerTest, ClosePolicyTurnsConflictIntoMiss) {
  build(1, 1, core::PolicyKind::Close);
  read(rowAddr(1));
  eq_.run();
  // Let the idle precharge happen, then access another row.
  eq_.runUntil(eq_.now() + us(1));
  read(rowAddr(2));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowConflicts, 0);
  EXPECT_EQ(s.rowMisses, 2);
}

TEST_F(ControllerTest, OpenPolicyKeepsRowForLateHit) {
  build(1, 1, core::PolicyKind::Open);
  read(rowAddr(1, 0));
  eq_.run();
  eq_.runUntil(eq_.now() + us(1));
  read(rowAddr(1, 9));
  eq_.run();
  EXPECT_EQ(mc_->stats().rowHits, 1);
}

TEST_F(ControllerTest, PerfectPolicyMatchesBestStaticEitherWay) {
  // Hit case: behaves like open.
  build(1, 1, core::PolicyKind::Perfect);
  read(rowAddr(1, 0));
  eq_.run();
  eq_.runUntil(eq_.now() + us(1));
  const size_t hit = read(rowAddr(1, 3));
  eq_.run();
  EXPECT_EQ(mc_->stats().rowHits, 1);
  const Tick hitLatency = done_[hit];
  EXPECT_GT(hitLatency, 0);

  // Conflict case: behaves like close (counts as a miss, not a conflict).
  build(1, 1, core::PolicyKind::Perfect);
  done_.clear();
  read(rowAddr(1));
  eq_.run();
  eq_.runUntil(eq_.now() + us(1));
  read(rowAddr(2));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.rowConflicts, 0);
  EXPECT_EQ(s.rowMisses, 2);
}

TEST_F(ControllerTest, SpeculationStatsTrackOutcomes) {
  build(1, 1, core::PolicyKind::Open);
  read(rowAddr(1, 0));
  eq_.run();
  read(rowAddr(1, 1));  // same row: "open" was right
  eq_.run();
  read(rowAddr(2, 0));  // different row: "open" was wrong
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.specDecisions, 2);
  EXPECT_EQ(s.specCorrect, 1);
}

TEST_F(ControllerTest, WriteForwardingServesReadFromWriteQueue) {
  build();
  write(rowAddr(3));
  const size_t r = read(rowAddr(3));
  eq_.run();
  const auto s = mc_->stats();
  EXPECT_EQ(s.forwardedReads, 1);
  EXPECT_GE(done_[r], 0);
}

TEST_F(ControllerTest, WriteCoalescingDropsDuplicates) {
  build();
  write(rowAddr(4));
  write(rowAddr(4));
  eq_.run();
  // Both writes are received, but the duplicate coalesces into one buffered
  // entry: exactly one column access reaches the DRAM.
  EXPECT_EQ(mc_->stats().writes, 2);
  EXPECT_EQ(mc_->energyMeter().casOps(), 1);
}

TEST_F(ControllerTest, ReadsPrioritizedOverBufferedWrites) {
  build();
  // One write sits buffered; a read to a *different bank* should complete
  // without waiting behind a write drain (the write may have opened its own
  // bank first, so the read only pays command-bus and tRRD spacing).
  write(rowAddr(5));
  core::DramAddress da;
  da.bank = 1;
  da.row = 6;
  const size_t r = read(map_->compose(da));
  eq_.run();
  const auto t = dram::TimingParams::tsi();
  EXPECT_LE(done_[r], t.tRRD + t.tRCD + t.tAA + t.tBURST + t.tCMD);
  EXPECT_EQ(mc_->outstanding(), 0);  // the write drained once reads were done
}

TEST_F(ControllerTest, ManyRandomRequestsAllCompleteUnderChecker) {
  build(2, 8, core::PolicyKind::Open, SchedulerKind::ParBs);
  Rng rng(5);
  std::vector<size_t> idx;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t addr = (rng.nextU64() % (1ull << 30)) & ~63ull;
    if (rng.nextBool(0.3)) {
      write(addr);
    } else {
      idx.push_back(read(addr, static_cast<ThreadId>(rng.nextBounded(4))));
    }
  }
  eq_.run();
  for (const size_t i : idx) EXPECT_GE(done_[i], 0) << "read " << i << " never completed";
  EXPECT_EQ(mc_->outstanding(), 0);
}

TEST_F(ControllerTest, UbanksRemoveConflictsBetweenInterleavedRows) {
  // Two alternating rows that live in the same bank at (1,1) but in
  // different μbanks at (1,8): the conflict count must collapse.
  build(1, 1);
  for (int i = 0; i < 10; ++i) {
    read(rowAddr(1, i));
    read(rowAddr(9, i));  // row 9: same bank, different row at (1,1)
    eq_.run();
  }
  // One conflict per alternation (the scheduler serves the row hit first,
  // then the other row evicts it).
  const auto conflictsBase = mc_->stats().rowConflicts;
  EXPECT_GE(conflictsBase, 10);

  build(1, 8);
  done_.clear();
  // Compose addresses against the new map: rows 1 and 9 of μbank 0 and the
  // equivalent lines now map to distinct μbanks.
  for (int i = 0; i < 10; ++i) {
    core::DramAddress a;
    a.row = 1;
    a.column = i;
    core::DramAddress b;
    b.row = 1;
    b.ubank = 1;
    b.column = i;
    read(map_->compose(a));
    read(map_->compose(b));
    eq_.run();
  }
  EXPECT_EQ(mc_->stats().rowConflicts, 0);
  EXPECT_EQ(mc_->stats().rowHits, 18);
}

TEST_F(ControllerTest, QueueOccupancyReflectsBacklog) {
  build();
  for (int i = 0; i < 20; ++i) read(rowAddr(i * 7 + 1));
  eq_.run();
  mc_->finalize(eq_.now());
  EXPECT_GT(mc_->stats().avgQueueOccupancy, 1.0);
}

TEST_F(ControllerTest, EnergyMeterCountsActsAndCas) {
  build();
  read(rowAddr(1, 0));
  read(rowAddr(1, 1));
  eq_.run();
  const auto& m = mc_->energyMeter();
  EXPECT_EQ(m.activations(), 1);
  EXPECT_EQ(m.casOps(), 2);
  EXPECT_DOUBLE_EQ(m.actPre(), 30000.0);  // one full 8 KB row
}

TEST_F(ControllerTest, UbankActivationEnergyScalesDown) {
  build(8, 1);
  core::DramAddress a;
  a.row = 1;
  read(map_->compose(a));
  eq_.run();
  EXPECT_DOUBLE_EQ(mc_->energyMeter().actPre(), 30000.0 / 8.0);
}

TEST_F(ControllerTest, RefreshHappensWhenEnabled) {
  geom_ = testGeometry();
  map_.emplace(core::AddressMap::pageInterleaved(geom_));
  ControllerConfig cfg;
  cfg.refreshEnabled = true;
  cfg.enableTimingCheck = true;
  mc_.emplace(0, geom_, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(),
              *map_, cfg, eq_);
  // Activity far past several refresh intervals.
  for (int i = 0; i < 5; ++i) {
    read(rowAddr(i + 1));
    eq_.runUntil(eq_.now() + us(20));
  }
  eq_.run();
  EXPECT_GT(mc_->stats().refreshes, 0);
}

TEST_F(ControllerTest, FcfsAndFrFcfsBothDrainEverything) {
  for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs}) {
    build(1, 1, core::PolicyKind::Open, kind);
    done_.clear();
    std::vector<size_t> idx;
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
      idx.push_back(read((rng.nextU64() % (1ull << 28)) & ~63ull));
    eq_.run();
    for (const size_t i : idx) EXPECT_GE(done_[i], 0);
  }
}

TEST_F(ControllerTest, LatencyStatsPopulated) {
  build();
  read(rowAddr(1));
  eq_.run();
  mc_->finalize(eq_.now());
  const auto s = mc_->stats();
  const auto t = dram::TimingParams::tsi();
  EXPECT_NEAR(s.avgReadLatencyNs, toNs(t.tRCD + t.tAA + t.tBURST), 0.01);
}

// ---- Kick-event bookkeeping ----------------------------------------------

TEST_F(ControllerTest, KickBookkeepingStaysBoundedUnderIdleThenBurst) {
  build();
  std::size_t maxLive = 0;
  for (int cycle = 0; cycle < 16; ++cycle) {
    // Burst across conflicting rows of one bank, then go fully idle. Every
    // conflict arms a future wake-up; the bookkeeping must not accumulate
    // entries across cycles.
    for (int i = 0; i < 6; ++i) read(rowAddr(cycle * 8 + i));
    while (eq_.step()) {
      const auto& ks = mc_->pendingKickEvents();
      maxLive = std::max(maxLive, ks.size());
      // Sorted ascending with no duplicate ticks: armKick dedupes per tick.
      for (std::size_t k = 1; k < ks.size(); ++k)
        ASSERT_LT(ks[k - 1].at, ks[k].at);
    }
    // Fully drained: every armed wake-up fired and erased itself.
    ASSERT_LE(mc_->pendingKickEvents().size(), 1u) << "cycle " << cycle;
  }
  EXPECT_TRUE(mc_->pendingKickEvents().empty());
  EXPECT_EQ(mc_->liveCompletionCount(), 0u);
  // Transient entries are bounded by the burst depth, not by run history.
  EXPECT_LE(maxLive, 6u);
}

// commandsIssued counts every committed ACT, PRE and CAS, the close
// policy's idle precharges included: every command the command log sees.
TEST_F(ControllerTest, CommandsIssuedCountsEveryCommit) {
  for (const auto policy : {core::PolicyKind::Open, core::PolicyKind::Close}) {
    build(1, 1, policy);
    for (int i = 0; i < 24; ++i) read(bankAddr(i % 3, i % 5));
    for (int i = 0; i < 8; ++i) write(bankAddr(4, i));
    eq_.run();
    const auto traced = static_cast<std::int64_t>(log_.trace().events.size());
    ASSERT_GT(traced, 24);
    EXPECT_EQ(mc_->stats().commandsIssued, traced);
  }
}

// A read admitted to the overflow FIFO changes nothing arbitration sees, so
// its kick, before the armed wake-up, is counted as a no-op and skipped;
// the request is still served once it enters the window.
TEST_F(ControllerTest, OverflowAdmissionBeforeTheWakeIsANoopKick) {
  build();
  const int depth = ControllerConfig{}.queueDepth;
  for (int i = 0; i < depth; ++i) read(bankAddr(i % 8, i / 8));
  ASSERT_FALSE(mc_->pendingKickEvents().empty());
  ASSERT_GT(mc_->pendingKickEvents().front().at, 1);
  std::optional<size_t> late;
  eq_.scheduleAt(1, [&] { late = read(bankAddr(0, 100)); });
  eq_.run();
  EXPECT_EQ(mc_->stats().noopKicks, 1);
  ASSERT_TRUE(late.has_value());
  for (const Tick t : done_) EXPECT_GT(t, 0);
  EXPECT_EQ(mc_->outstanding(), 0);
}

TEST_F(ControllerTest, KickAndCompletionStateSurviveCheckpointRoundTrip) {
  build();
  for (int i = 0; i < 6; ++i) read(rowAddr(i));  // conflicting rows → wake-ups
  // Step to a mid-flight point where at least one wake-up is armed.
  while (mc_->pendingKickEvents().empty() && eq_.step()) {
  }
  ASSERT_FALSE(mc_->pendingKickEvents().empty());
  const Tick snapTick = eq_.now();
  std::vector<Tick> snapKicks;
  for (const auto& e : mc_->pendingKickEvents()) snapKicks.push_back(e.at);
  const std::size_t snapCompl = mc_->liveCompletionCount();
  std::vector<std::size_t> pendingIdx;
  for (std::size_t i = 0; i < done_.size(); ++i)
    if (done_[i] < 0) pendingIdx.push_back(i);

  ckpt::Writer w;
  mc_->save(w);

  // Finish the original run; the requests still in flight at the snapshot
  // are the reference the restored controller must reproduce.
  eq_.run();
  std::vector<Tick> refDone;
  for (const std::size_t i : pendingIdx) refDone.push_back(done_[i]);
  std::sort(refDone.begin(), refDone.end());

  // Fresh controller restored from the snapshot at the capture tick.
  EventQueue eq2;
  eq2.restoreClock(snapTick);
  ControllerConfig cfg;
  cfg.pagePolicy = core::PolicyKind::Open;
  cfg.scheduler = SchedulerKind::ParBs;
  cfg.enableTimingCheck = true;
  cfg.refreshEnabled = false;
  MemoryController mc2(0, geom_, dram::TimingParams::tsi(),
                       dram::EnergyParams::lpddrTsi(), *map_, cfg, eq2);
  std::vector<Tick> gotDone;
  mc2.completionFactory = [&gotDone](std::uint64_t, CoreId) {
    return [&gotDone](Tick when) { gotDone.push_back(when); };
  };
  mc2.coreCount = 1;  // every request above comes from core 0
  ckpt::Reader r(w.str());
  mc2.load(r);
  ASSERT_TRUE(r.ok());
  ckpt::EventRestorer er;
  mc2.reschedule(er);
  er.replay();

  // Exactly the saved wake-ups came back — no stale or duplicate entries.
  ASSERT_EQ(mc2.pendingKickEvents().size(), snapKicks.size());
  for (std::size_t i = 0; i < snapKicks.size(); ++i)
    EXPECT_EQ(mc2.pendingKickEvents()[i].at, snapKicks[i]);
  EXPECT_EQ(mc2.liveCompletionCount(), snapCompl);

  eq2.run();
  std::sort(gotDone.begin(), gotDone.end());
  EXPECT_EQ(gotDone, refDone);
  EXPECT_TRUE(mc2.pendingKickEvents().empty());
  EXPECT_EQ(mc2.liveCompletionCount(), 0u);
  EXPECT_EQ(mc2.outstanding(), 0);
}

TEST_F(ControllerTest, StaleKickEntryDiesOnRestoreIntoItsPast) {
  build();
  for (int i = 0; i < 6; ++i) read(rowAddr(i));
  while (mc_->pendingKickEvents().empty() && eq_.step()) {
  }
  ASSERT_FALSE(mc_->pendingKickEvents().empty());
  ckpt::Writer w;
  mc_->save(w);
  const Tick lastKick = mc_->pendingKickEvents().back().at;

  // Restoring into a clock beyond the saved wake-ups makes them stale; the
  // re-arm must trip the event queue's past-check rather than silently
  // resurrect them at a tick that already elapsed.
  EventQueue eq2;
  eq2.restoreClock(lastKick + 1);
  ControllerConfig cfg;
  cfg.pagePolicy = core::PolicyKind::Open;
  cfg.scheduler = SchedulerKind::ParBs;
  cfg.enableTimingCheck = true;
  cfg.refreshEnabled = false;
  MemoryController mc2(0, geom_, dram::TimingParams::tsi(),
                       dram::EnergyParams::lpddrTsi(), *map_, cfg, eq2);
  mc2.completionFactory = [](std::uint64_t, CoreId) { return [](Tick) {}; };
  mc2.coreCount = 1;
  ckpt::Reader r(w.str());
  mc2.load(r);
  ASSERT_TRUE(r.ok());
  ckpt::EventRestorer er;
  mc2.reschedule(er);
  EXPECT_DEATH(er.replay(), "check failed");
}

// ---- Anti-row-steal guard -------------------------------------------------
//
// A request that needs a PRE must not close a row an older, currently served
// request still wants. Most cases go through openRowsAndStallReads(): the
// posted write's data holds every rank-0 read CAS back by tWTR (about
// 23 ns), while bank 0 stays free to precharge. A PRE that is not blocked
// therefore reaches bank 0 long before the queued row hit there can issue,
// and the first bank-0 command tells the cases apart.
TEST_F(ControllerTest, OlderRowUserBlocksAYoungerConflictingPrecharge) {
  const Tick t0 = openRowsAndStallReads();
  const size_t older = read(bankAddr(0, 1));  // row hit, CAS held by tWTR
  size_t younger = 0;
  readLater(t0, ns(2), bankAddr(0, 2), 0, younger);  // conflict, arrives later
  eq_.run();
  const auto bank0 = bank0Commands();
  ASSERT_GE(bank0.size(), 2u);
  EXPECT_EQ(bank0[0], DramCommand::Read);  // the older row hit kept its row
  EXPECT_EQ(bank0[1], DramCommand::Pre);
  EXPECT_LT(done_[older], done_[younger]);
  EXPECT_EQ(mc_->outstanding(), 0);
}

TEST_F(ControllerTest, MarkedYoungerRequestMayPrechargeOverUnmarkedOlderRowUser) {
  const Tick t0 = openRowsAndStallReads();
  // The first read forms a one-request batch. Thread 0 then queues five
  // reads to closed banks and the bank-0 row hit; when the first batch
  // drains, the per-thread cap of five marks the five older ones and leaves
  // the row hit unmarked, while thread 1's younger conflicting read is
  // marked.
  read(bankAddr(1, 5), 2);
  for (int bank = 2; bank <= 6; ++bank) read(bankAddr(bank, 7), 0);
  const size_t older = read(bankAddr(0, 1), 0);
  size_t younger = 0;
  readLater(t0, ns(2), bankAddr(0, 2), 1, younger);
  eq_.run();
  const auto bank0 = bank0Commands();
  ASSERT_GE(bank0.size(), 2u);
  EXPECT_EQ(bank0[0], DramCommand::Pre);  // the marked request closed the row
  EXPECT_LT(done_[younger], done_[older]);
  EXPECT_EQ(mc_->outstanding(), 0);
}

TEST_F(ControllerTest, OlderRowUserInTheWriteQueueOutsideADrainDoesNotBlock) {
  build();
  read(bankAddr(0, 1));
  eq_.run();
  recordFrom_ = log_.trace().events.size();
  const Tick t0 = eq_.now();
  // A read to a closed bank keeps the read queue busy, so the older write
  // to the open row waits in the write queue, outside a drain burst.
  read(bankAddr(2, 3));
  write(bankAddr(0, 1));
  size_t younger = 0;
  readLater(t0, ns(2), bankAddr(0, 2), 0, younger);
  eq_.run();
  const auto bank0 = bank0Commands();
  ASSERT_GE(bank0.size(), 1u);
  EXPECT_EQ(bank0[0], DramCommand::Pre);  // the queued write did not block it
  EXPECT_GE(done_[younger], 0);
  EXPECT_EQ(mc_->outstanding(), 0);  // the write drained afterwards
}

TEST_F(ControllerTest, EqualArrivalRowUserDoesNotBlock) {
  openRowsAndStallReads();
  const size_t first = read(bankAddr(0, 1));   // row hit, CAS held by tWTR
  const size_t second = read(bankAddr(0, 2));  // same arrival tick
  eq_.run();
  const auto bank0 = bank0Commands();
  ASSERT_GE(bank0.size(), 1u);
  EXPECT_EQ(bank0[0], DramCommand::Pre);  // the guard is strictly older
  EXPECT_GE(done_[first], 0);
  EXPECT_GE(done_[second], 0);
  EXPECT_EQ(mc_->outstanding(), 0);
}

// Hostile snapshot: a queued request's core reaches completionFactory on
// restore, so load() range-checks it against the wired core count.
TEST_F(ControllerTest, RestoreRejectsARequestCoreOutOfRange) {
  build();
  const std::uint64_t addr = rowAddr(0x2D2D, 5);
  read(addr);
  ckpt::Writer w;
  mc_->save(w);
  auto restoreWithCore = [&](std::int32_t core) {
    std::string bytes = w.str();
    // Queued request: u64 id, u64 addr, b write, i32 core.
    EXPECT_TRUE(forgeI32After(bytes, addr, 9, core));
    EventQueue eq2;
    ControllerConfig cfg;
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    MemoryController mc2(0, geom_, dram::TimingParams::tsi(),
                         dram::EnergyParams::lpddrTsi(), *map_, cfg, eq2);
    mc2.completionFactory = [](std::uint64_t, CoreId) { return [](Tick) {}; };
    mc2.coreCount = 2;
    ckpt::Reader r(bytes);
    mc2.load(r);
    return r.ok();
  };
  EXPECT_TRUE(restoreWithCore(1));
  EXPECT_FALSE(restoreWithCore(2));
  EXPECT_FALSE(restoreWithCore(-1));
}

// Hostile snapshot: PAR-BS addresses read-window requests by position, so
// load() checks that the scheduler's queue view names the controller's
// queued reads in order.
TEST_F(ControllerTest, RestoreRejectsAQueueViewThatDisagreesWithTheReadWindow) {
  build();
  const std::uint64_t first = rowAddr(0x2D2D, 5);
  read(first);
  read(rowAddr(0x2D2E, 5));
  ckpt::Writer w;
  mc_->save(w);
  auto restoreWithSecondId = [&](std::int32_t id) {
    std::string bytes = w.str();
    // Queued request: u64 id, u64 addr, b write, i32 core, i32 thread,
    // i64 arrival and three flags; the next request's id follows.
    EXPECT_TRUE(forgeI32After(bytes, first, 28, id));
    EventQueue eq2;
    ControllerConfig cfg;
    cfg.enableTimingCheck = true;
    cfg.refreshEnabled = false;
    MemoryController mc2(0, geom_, dram::TimingParams::tsi(),
                         dram::EnergyParams::lpddrTsi(), *map_, cfg, eq2);
    mc2.completionFactory = [](std::uint64_t, CoreId) { return [](Tick) {}; };
    mc2.coreCount = 1;
    ckpt::Reader r(bytes);
    mc2.load(r);
    return r.ok();
  };
  EXPECT_TRUE(restoreWithSecondId(2));  // the honest id: requests number from 1
  EXPECT_FALSE(restoreWithSecondId(999));
}

}  // namespace
}  // namespace mb::mc
