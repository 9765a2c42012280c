#include "mc/device_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace mb::mc {
namespace {

dram::Geometry smallGeometry(int nW = 1, int nB = 1) {
  dram::Geometry g;
  g.channels = 1;
  g.ranksPerChannel = 2;
  g.banksPerRank = 2;
  g.ubank = {nW, nB};
  g.capacityBytes = 4 * kGiB;
  return g;
}

core::DramAddress addr(int rank, int bank, int ubank, std::int64_t row) {
  core::DramAddress da;
  da.rank = rank;
  da.bank = bank;
  da.ubank = ubank;
  da.row = row;
  return da;
}

class ChannelStateTest : public ::testing::Test {
 protected:
  ChannelStateTest() : ch_(smallGeometry(2, 2), dram::TimingParams::tsi()) {
    ch_.refreshEnabled = false;
  }
  ChannelState ch_;
  const dram::TimingParams t_ = dram::TimingParams::tsi();
};

TEST_F(ChannelStateTest, FreshBankAcceptsImmediateAct) {
  EXPECT_EQ(ch_.earliestAct(addr(0, 0, 0, 5), 0), 0);
}

TEST_F(ChannelStateTest, ActOpensRow) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  EXPECT_TRUE(ch_.ubank(a).rowOpen());
  EXPECT_EQ(ch_.ubank(a).openRow, 5);
}

TEST_F(ChannelStateTest, CasWaitsForTrcd) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  EXPECT_GE(ch_.earliestCas(a, false, 0), t_.tRCD);
}

TEST_F(ChannelStateTest, PreWaitsForTras) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  EXPECT_GE(ch_.earliestPre(a, 0), t_.tRAS);
}

TEST_F(ChannelStateTest, ActAfterPreWaitsForTrp) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  ch_.commitPre(a, t_.tRAS);
  EXPECT_FALSE(ch_.ubank(a).rowOpen());
  EXPECT_GE(ch_.earliestAct(a, t_.tRAS), t_.tRAS + t_.tRP);
}

TEST_F(ChannelStateTest, SameRankActsSpacedByTrrd) {
  ch_.commitAct(addr(0, 0, 0, 1), 0);
  EXPECT_GE(ch_.earliestAct(addr(0, 1, 0, 2), 0), t_.tRRD);
}

TEST_F(ChannelStateTest, DifferentRanksDoNotShareTrrd) {
  ch_.commitAct(addr(0, 0, 0, 1), 0);
  // Only the command-bus slot separates ACTs to different ranks.
  EXPECT_EQ(ch_.earliestAct(addr(1, 0, 0, 2), 0), t_.tCMD);
}

TEST_F(ChannelStateTest, FawLimitsFifthActivate) {
  // Four activates at the tRRD rate, alternating μbanks of a rank.
  Tick at = 0;
  const core::DramAddress a[4] = {addr(0, 0, 0, 1), addr(0, 0, 1, 1),
                                  addr(0, 0, 2, 1), addr(0, 0, 3, 1)};
  for (int i = 0; i < 4; ++i) {
    at = ch_.earliestAct(a[i], at);
    ch_.commitAct(a[i], at);
  }
  // 4 ACTs at 0, 6, 12, 18 ns; the 5th must wait until 0 + tFAW = 30 ns.
  const auto fifth = addr(0, 1, 0, 1);
  EXPECT_GE(ch_.earliestAct(fifth, at), t_.tFAW);
}

TEST_F(ChannelStateTest, CasReservesDataBus) {
  const auto a = addr(0, 0, 0, 5);
  const auto b = addr(0, 1, 0, 7);
  ch_.commitAct(a, 0);
  ch_.commitAct(b, t_.tRRD);
  const Tick casA = ch_.earliestCas(a, false, t_.tRCD);
  const Tick endA = ch_.commitCas(a, false, casA);
  EXPECT_EQ(endA, casA + t_.tAA + t_.tBURST);
  // The second CAS's data must start after the first burst ends.
  const Tick casB = ch_.earliestCas(b, false, casA);
  EXPECT_GE(casB + t_.tAA, endA);
  const Tick endB = ch_.commitCas(b, false, casB);
  EXPECT_GE(endB, endA + t_.tBURST);
}

TEST_F(ChannelStateTest, WriteToReadTurnaroundOnSameRank) {
  const auto a = addr(0, 0, 0, 5);
  const auto b = addr(0, 1, 0, 7);
  ch_.commitAct(a, 0);
  ch_.commitAct(b, t_.tRRD);
  const Tick wr = ch_.earliestCas(a, true, t_.tRCD);
  const Tick wrEnd = ch_.commitCas(a, true, wr);
  const Tick rd = ch_.earliestCas(b, false, wr);
  EXPECT_GE(rd, wrEnd + t_.tWTR);
}

TEST_F(ChannelStateTest, ReadToPrechargeRespectsTrtp) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  const Tick cas = ch_.earliestCas(a, false, t_.tRCD);
  ch_.commitCas(a, false, cas);
  EXPECT_GE(ch_.earliestPre(a, cas), cas + t_.tRTP);
}

TEST_F(ChannelStateTest, WriteRecoveryBeforePrecharge) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  const Tick cas = ch_.earliestCas(a, true, t_.tRCD);
  const Tick dataEnd = ch_.commitCas(a, true, cas);
  EXPECT_GE(ch_.earliestPre(a, cas), dataEnd + t_.tWR);
}

TEST_F(ChannelStateTest, UbanksOfOneBankHoldIndependentRows) {
  const auto u0 = addr(0, 0, 0, 5);
  const auto u3 = addr(0, 0, 3, 9);
  ch_.commitAct(u0, 0);
  ch_.commitAct(u3, t_.tRRD);
  EXPECT_EQ(ch_.ubank(u0).openRow, 5);
  EXPECT_EQ(ch_.ubank(u3).openRow, 9);
}

TEST_F(ChannelStateTest, CommandBusSerializesCommands) {
  ch_.commitAct(addr(0, 0, 0, 1), 0);
  EXPECT_GE(ch_.cmdBusFreeAt(), t_.tCMD);
  EXPECT_GE(ch_.earliestAct(addr(1, 0, 0, 1), 0), t_.tCMD);
}

TEST(ChannelStateRefresh, RefreshClosesRowsAndBlocksRank) {
  auto g = smallGeometry(1, 1);
  const auto t = dram::TimingParams::tsi();
  ChannelState ch(g, t);
  core::DramAddress a;
  a.rank = 0;
  a.bank = 0;
  a.ubank = 0;
  a.row = 3;
  ch.commitAct(a, 0);
  int refreshes = 0;
  // Jump past the first due time.
  const Tick due = ch.nextRefreshDue();
  EXPECT_LT(due, kTickNever);
  EXPECT_TRUE(ch.maybeRefresh(due, [&](int, int) { ++refreshes; }));
  EXPECT_EQ(refreshes, 1);
  EXPECT_FALSE(ch.ubank(a).rowOpen());
  EXPECT_GE(ch.earliestAct(a, due), due + t.tRFC);
}

TEST(ChannelStateRefresh, DisabledRefreshNeverDue) {
  auto g = smallGeometry(1, 1);
  ChannelState ch(g, dram::TimingParams::tsi());
  ch.refreshEnabled = false;
  EXPECT_EQ(ch.nextRefreshDue(), kTickNever);
  EXPECT_FALSE(ch.maybeRefresh(kSecond, nullptr));
}

TEST(ChannelStateRefresh, PerBankRefreshBlocksOnlyOneBank) {
  auto g = smallGeometry(1, 1);
  const auto t = dram::TimingParams::tsi();
  ChannelState ch(g, t);
  ch.perBankRefresh = true;
  const Tick due = ch.nextRefreshDue();
  ASSERT_LT(due, kTickNever);
  EXPECT_TRUE(ch.maybeRefresh(due, nullptr));
  // Bank 0 of the refreshed rank is blocked for tRFCpb; bank 1 is free.
  // (Which rank was due depends on the stagger; probe both banks of each.)
  int blockedBanks = 0;
  for (int rank = 0; rank < g.ranksPerChannel; ++rank) {
    for (int bank = 0; bank < g.banksPerRank; ++bank) {
      if (ch.earliestAct(addr(rank, bank, 0, 1), due) >= due + t.tRFCpb / 2)
        ++blockedBanks;
    }
  }
  EXPECT_EQ(blockedBanks, 1);
}

TEST(ChannelStateRefresh, PerBankRefreshRotatesThroughBanks) {
  auto g = smallGeometry(1, 1);
  const auto t = dram::TimingParams::tsi();
  ChannelState ch(g, t);
  ch.perBankRefresh = true;
  // Drive enough due times to rotate through rank 0's two banks.
  Tick now = ch.rankAt(0).nextRefreshAt;
  EXPECT_EQ(ch.rankAt(0).nextRefreshBank, 0);
  ch.maybeRefresh(now, nullptr);
  const int afterFirst = ch.rankAt(0).nextRefreshBank;
  now = ch.rankAt(0).nextRefreshAt;
  ch.maybeRefresh(now, nullptr);
  EXPECT_NE(ch.rankAt(0).nextRefreshBank, afterFirst);
}

TEST(ChannelStateRefresh, PerBankPeriodIsShorter) {
  // Per-bank mode refreshes banks-per-rank times as often (same total
  // refresh work), so consecutive due times are tREFI / banks apart.
  auto g = smallGeometry(1, 1);
  const auto t = dram::TimingParams::tsi();
  ChannelState ch(g, t);
  ch.perBankRefresh = true;
  const Tick first = ch.rankAt(0).nextRefreshAt;
  ch.maybeRefresh(first, nullptr);
  EXPECT_EQ(ch.rankAt(0).nextRefreshAt - first, t.tREFI / g.banksPerRank);
}

TEST(ChannelStateRefresh, RanksRefreshStaggered) {
  auto g = smallGeometry(1, 1);
  const auto t = dram::TimingParams::tsi();
  ChannelState ch(g, t);
  // Rank 0 is due at tREFI; rank 1 half a period later.
  EXPECT_TRUE(ch.maybeRefresh(t.tREFI, nullptr));
  EXPECT_EQ(ch.rankAt(0).nextRefreshAt, 2 * t.tREFI);
  EXPECT_GT(ch.rankAt(1).nextRefreshAt, t.tREFI);
}

// The arbitration fast path prices a command as max(rank floor, μbank
// term); that must equal the earliest* reference in every reachable state.
// Drive a random legal command stream, with refreshes of both kinds, and
// compare every command kind on every μbank after each step. The second
// timing set makes tCCD, the data burst and tRTRS each the binding CAS
// bound in some state (TSI timing has tRTRS = 0 and tCCD = tBURST).
TEST(ChannelStateFloors, FloorAndTermFactorTheEarliestQueries) {
  dram::TimingParams pcb = dram::TimingParams::ddr3();
  pcb.tCCD = pcb.tBURST + ns(1);
  for (const auto& timing : {dram::TimingParams::tsi(), pcb}) {
    for (const bool perBank : {false, true}) {
      ChannelState ch(smallGeometry(2, 2), timing);
      ch.perBankRefresh = perBank;
      Rng rng(perBank ? 11 : 7);
      std::vector<core::DramAddress> ubanks;
      for (int r = 0; r < 2; ++r)
        for (int b = 0; b < 2; ++b)
          for (int u = 0; u < 4; ++u) ubanks.push_back(addr(r, b, u, 0));
      std::vector<ChannelState::CommandFloors> floors;
      Tick now = 0;
      int refreshes = 0;
      for (int step = 0; step < 12000; ++step) {
        now += static_cast<Tick>(rng.nextBounded(3000));
        refreshes += ch.maybeRefresh(now, nullptr) ? 1 : 0;
        ch.commandFloors(now, floors);
        for (core::DramAddress da : ubanks) {
          const int ub = ch.ubankIndex(da);
          da.row = std::max<std::int64_t>(ch.openRow(ub), 0);
          std::vector<DramCommand> cmds{DramCommand::Act};
          if (ch.rowOpen(ub))
            cmds = {DramCommand::Pre, DramCommand::Read, DramCommand::Write};
          for (const DramCommand cmd : cmds) {
            const auto& f = floors[static_cast<std::size_t>(da.rank)];
            EXPECT_EQ(std::max(f[static_cast<std::size_t>(cmd)], ch.ubankTerm(cmd, ub)),
                      ch.earliest(cmd, da, ub, now))
                << commandName(cmd) << " on " << da.toString() << " at step " << step;
          }
        }
        // Commit the first command that is legal now on a random μbank, so
        // activations crowd the tFAW window and CASes alternate ranks.
        for (int tries = 0; tries < 4; ++tries) {
          core::DramAddress da = ubanks[rng.nextBounded(ubanks.size())];
          const int ub = ch.ubankIndex(da);
          if (!ch.rowOpen(ub)) {
            da.row = static_cast<std::int64_t>(rng.nextBounded(4));
            if (ch.earliestAct(da, ub, now) > now) continue;
            ch.commitAct(da, ub, now);
          } else {
            da.row = ch.openRow(ub);
            const bool write = rng.nextBool(0.4);
            if (rng.nextBool(0.2)) {
              if (ch.earliestPre(da, ub, now) > now) continue;
              ch.commitPre(da, ub, now);
            } else {
              if (ch.earliestCas(da, ub, write, now) > now) continue;
              ch.commitCas(da, ub, write, now);
            }
          }
          break;
        }
      }
      EXPECT_GE(refreshes, 2);
    }
  }
}

TEST_F(ChannelStateTest, DataBusUtilizationAccumulates) {
  const auto a = addr(0, 0, 0, 5);
  ch_.commitAct(a, 0);
  const Tick cas = ch_.earliestCas(a, false, t_.tRCD);
  const Tick end = ch_.commitCas(a, false, cas);
  EXPECT_NEAR(ch_.dataBusUtilization(end),
              static_cast<double>(t_.tBURST) / static_cast<double>(end), 1e-12);
}

}  // namespace
}  // namespace mb::mc
