// Command-stream golden corpus for the memory controller alone.
//
// Seeded random request streams drive a 2-rank, (4,4)-μbank controller under
// every scheduler × page policy × refresh mode. The queues are kept small, so
// the read window overflows and refills and write drains start and stop many
// times per stream, and one thread issues most requests, so PAR-BS batches
// leave some of its requests unmarked. Each stream's committed commands (as
// the controller's CommandLog sees them, idle precharges included) and read
// completion ticks are hashed with FNV-1a64 and pinned in
// tests/golden/controller_streams.txt: a change to arbitration that alters a
// single command, its tick or its order fails here, long before the
// whole-system report corpus would show it.
//
// Regenerate (after an INTENTIONAL behaviour change only):
//   MB_UPDATE_GOLDEN=1 ./build/tests/mc_tests
//       --gtest_filter='ControllerStreamGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "golden_file.hpp"
#include "mc/controller.hpp"
#include "mc/command_log.hpp"

#ifndef MB_CONTROLLER_GOLDEN_FILE
#error "MB_CONTROLLER_GOLDEN_FILE must point at tests/golden/controller_streams.txt"
#endif

namespace mb::mc {
namespace {

constexpr int kRequests = 1500;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

struct StreamCase {
  SchedulerKind sched;
  core::PolicyKind policy;
  bool perBankRefresh;

  std::string key() const {
    const char* p = policy == core::PolicyKind::Open    ? "open"
                    : policy == core::PolicyKind::Close ? "close"
                                                        : "perfect";
    return schedulerKindName(sched) + "/" + p + (perBankRefresh ? "/per-bank" : "/all-bank");
  }
};

std::vector<StreamCase> streamCases() {
  std::vector<StreamCase> out;
  for (const auto sched : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs})
    for (const auto policy :
         {core::PolicyKind::Open, core::PolicyKind::Close, core::PolicyKind::Perfect})
      for (const bool perBank : {false, true}) out.push_back({sched, policy, perBank});
  return out;
}

struct StreamResult {
  std::uint64_t hash = 0;
  ControllerStats stats;
  int outstanding = 0;
};

StreamResult runStream(const StreamCase& c, std::uint64_t seed) {
  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 8;
  g.ubank = {4, 4};
  g.capacityBytes = 4 * kGiB;
  const core::AddressMap map = core::AddressMap::pageInterleaved(g);
  ControllerConfig cfg;
  cfg.queueDepth = 8;
  cfg.writeQueueDepth = 10;
  cfg.writeHighWatermark = 8;
  cfg.writeLowWatermark = 3;
  cfg.scheduler = c.sched;
  cfg.pagePolicy = c.policy;
  cfg.enableTimingCheck = true;
  cfg.refreshEnabled = true;
  cfg.perBankRefresh = c.perBankRefresh;
  CommandLogRecorder log{CmdTraceConfig{}};
  cfg.commandLog = &log;
  EventQueue eq;
  MemoryController mc(0, g, dram::TimingParams::tsi(), dram::EnergyParams::lpddrTsi(), map,
                      cfg, eq);


  // Few rows on a few μbanks, so row hits, conflicts and same-μbank
  // queueing are all common; a tenth of the requests reuse a
  // recent line (write forwarding and coalescing). Arrivals come in
  // same-tick bursts with short gaps and occasional idle stretches that
  // let refreshes and page-policy decisions catch up.
  Rng rng(seed);
  std::vector<Tick> done(kRequests, -1);
  std::vector<std::uint64_t> recent;
  Tick at = 0;
  for (int i = 0; i < kRequests; ++i) {
    std::uint64_t addr = 0;
    if (!recent.empty() && rng.nextBool(0.1)) {
      addr = recent[rng.nextBounded(recent.size())];
    } else {
      core::DramAddress da;
      da.rank = static_cast<int>(rng.nextBounded(2));
      da.bank = static_cast<int>(rng.nextBounded(2));
      da.ubank = static_cast<int>(rng.nextBounded(4));
      da.row = static_cast<std::int64_t>(rng.nextBounded(3));
      da.column = static_cast<std::int64_t>(rng.nextBounded(8));
      addr = map.compose(da);
      if (recent.size() < 16) recent.push_back(addr);
      else recent[rng.nextBounded(recent.size())] = addr;
    }
    const bool write = rng.nextBool(0.3);
    // One dominant thread overruns the PAR-BS marking cap within the window.
    const auto thread = static_cast<ThreadId>(rng.nextBool(0.6) ? 0 : 1 + rng.nextBounded(3));
    if (rng.nextBool(0.01)) at += ns(3000);
    else if (!rng.nextBool(0.3)) at += static_cast<Tick>(rng.nextBounded(20000));
    eq.scheduleAt(at, [&mc, &done, addr, write, thread, i] {
      MemRequest r;
      r.addr = addr;
      r.write = write;
      r.thread = thread;
      if (!write) r.onComplete = [&done, i](Tick when) { done[static_cast<size_t>(i)] = when; };
      mc.enqueue(std::move(r));
    });
  }
  eq.run();

  // Committed ACT/PRE/RD/WR commands, the page policy's idle precharges
  // included; refresh intervals and oracle pseudo-precharges are left out.
  Fnv cmds;
  for (const CmdEvent& ev : log.trace().events) {
    if (ev.kind > CmdEventKind::Write) continue;
    cmds.mix(static_cast<std::uint64_t>(ev.kind));
    cmds.mix(static_cast<std::uint64_t>(ev.rank));
    cmds.mix(static_cast<std::uint64_t>(ev.bank));
    cmds.mix(static_cast<std::uint64_t>(ev.ubank));
    cmds.mix(static_cast<std::uint64_t>(ev.row));
    cmds.mix(static_cast<std::uint64_t>(ev.column));
    cmds.mix(static_cast<std::uint64_t>(ev.at));
  }
  for (const Tick t : done) cmds.mix(static_cast<std::uint64_t>(t));
  return {cmds.h, mc.stats(), mc.outstanding()};
}

TEST(ControllerStreamGolden, CommandStreamsMatchCommittedHashes) {
  golden::Entries hashes;
  for (const StreamCase& c : streamCases()) {
    const StreamResult r = runStream(c, 0x5eed0000u + hashes.size());
    // The stream exercises what it is meant to: everything drains, and the
    // controller saw hits, conflicts and refreshes.
    EXPECT_EQ(r.outstanding, 0) << c.key();
    EXPECT_GT(r.stats.rowHits, 0) << c.key();
    EXPECT_GT(r.stats.rowConflicts + r.stats.rowMisses, 0) << c.key();
    EXPECT_GT(r.stats.refreshes, 0) << c.key();
    hashes.emplace_back(c.key(), r.hash);
  }
  if (golden::updating()) {
    golden::rewrite(MB_CONTROLLER_GOLDEN_FILE,
                    "# FNV-1a64 of each seeded controller stream's committed commands\n"
                    "# (its CommandLog: ACT/PRE/RD/WR, idle precharges included) and read\n"
                    "# completion ticks (tests/mc/controller_stream_golden_test.cpp).\n"
                    "# Regenerate: MB_UPDATE_GOLDEN=1 ./build/tests/mc_tests "
                    "--gtest_filter='ControllerStreamGolden.*'\n",
                    hashes);
    return;
  }
  ASSERT_EQ(golden::readEntries(MB_CONTROLLER_GOLDEN_FILE).size(), hashes.size())
      << "golden file " << MB_CONTROLLER_GOLDEN_FILE
      << " is missing entries; regenerate with MB_UPDATE_GOLDEN=1";
  const std::string detail = golden::mismatches(MB_CONTROLLER_GOLDEN_FILE, hashes);
  EXPECT_TRUE(detail.empty()) << "controller command streams diverged:\n" << detail;
}

// The corpus is only a gate if a stream is a pure function of its seed.
TEST(ControllerStreamGolden, StreamsAreDeterministic) {
  const StreamCase c{SchedulerKind::ParBs, core::PolicyKind::Perfect, true};
  EXPECT_EQ(runStream(c, 7).hash, runStream(c, 7).hash);
  EXPECT_NE(runStream(c, 7).hash, runStream(c, 8).hash);
}

}  // namespace
}  // namespace mb::mc
