#include "mc/timing_checker.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/check.hpp"
#include "mc/key_pack.hpp"

namespace mb::mc {

bool TimingChecker::fail(const Violation& v, DramCommand cmd,
                         const core::DramAddress& da, Tick at,
                         const UbankHistory& ub, const RankHistory& rk) {
  if (softFail && diagnostics == nullptr) return false;

  analysis::Diagnostic d(v.code, analysis::Severity::Error,
                         std::string("DRAM timing violation: ") + v.constraint);
  d.with("command", commandName(cmd))
      .with("address", da.toString())
      .with("at_ps", at)
      .with("constraint", v.constraint);
  if (v.bound >= 0) d.with("bound_ps", v.bound);
  if (v.earliestLegal >= 0) d.with("earliest_legal_ps", v.earliestLegal);
  // μbank shadow history.
  d.with("ubank.open_row", ub.openRow)
      .with("ubank.last_act_ps", ub.lastActAt)
      .with("ubank.last_pre_ps", ub.lastPreAt)
      .with("ubank.last_read_cas_ps", ub.lastReadCasAt)
      .with("ubank.last_write_data_end_ps", ub.lastWriteDataEndAt);
  // Rank shadow history.
  d.with("rank.last_act_ps", rk.lastActAt)
      .with("rank.acts_in_faw_window", static_cast<std::int64_t>(rk.actWindow.size()))
      .with("rank.last_write_data_end_ps", rk.lastWriteDataEndAt);
  // Channel shadow history.
  d.with("channel.last_cmd_ps", lastCmdAt_)
      .with("channel.last_cas_ps", lastCasAt_)
      .with("channel.last_data_end_ps", lastDataEndAt_)
      .with("channel.last_cas_rank", static_cast<std::int64_t>(lastCasRank_));

  if (diagnostics != nullptr) {
    diagnostics->report(std::move(d));
    return false;
  }
  std::fprintf(stderr, "%s\n", d.text().c_str());
  MB_CHECK(false && "DRAM timing violation");
  return false;
}

void TimingChecker::onRankRefresh(int channel, int rank, int refreshedBank) {
  // Reset the shadow row state of the refreshed μbanks; the refresh window
  // subsumes the implicit precharges and tRP.
  const int bankBegin = refreshedBank < 0 ? 0 : refreshedBank;
  const int bankEnd = refreshedBank < 0 ? geom_.banksPerRank : refreshedBank + 1;
  for (int bank = bankBegin; bank < bankEnd; ++bank) {
    for (int ub = 0; ub < geom_.ubanksPerBank(); ++ub) {
      auto it = ubanks_.find(packUbankKey(geom_, channel, rank, bank, ub));
      if (it == ubanks_.end()) continue;
      it->second.openRow = -1;
      it->second.lastPreAt = -1;
      it->second.lastReadCasAt = -1;
      it->second.lastWriteDataEndAt = -1;
    }
  }
}

void TimingChecker::onOraclePre(const core::DramAddress& da) {
  auto it = ubanks_.find(packUbankKey(geom_, da));
  if (it == ubanks_.end()) return;
  it->second.openRow = -1;
  it->second.lastPreAt = -1;  // the retroactive PRE + tRP is charged by the device
  it->second.lastReadCasAt = -1;
  it->second.lastWriteDataEndAt = -1;
}

bool TimingChecker::onCommand(DramCommand cmd, const core::DramAddress& da, Tick at) {
  ++commandsChecked_;
  auto& ub = ubanks_[packUbankKey(geom_, da)];
  auto& rk = ranks_[packRankKey(geom_, da.channel, da.rank)];

  const auto violated = [&](const char* code, const char* constraint, Tick bound = -1,
                            Tick earliestLegal = -1) {
    return fail(Violation{code, constraint, bound, earliestLegal}, cmd, da, at, ub, rk);
  };

  if (cmd != DramCommand::Refresh) {
    if (at < lastCmdAt_)
      return violated("MB-TIM-001", "command issued out of order", -1, lastCmdAt_);
    // Two commands may not share a command-bus slot.
    if (lastCmdAt_ >= 0 && at < lastCmdAt_ + timing_.tCMD)
      return violated("MB-TIM-002", "command bus slot (tCMD)", timing_.tCMD,
                      lastCmdAt_ + timing_.tCMD);
  }

  switch (cmd) {
    case DramCommand::Act: {
      if (ub.openRow >= 0)
        return violated("MB-TIM-003", "ACT to a bank with an open row");
      if (ub.lastPreAt >= 0 && at < ub.lastPreAt + timing_.tRP)
        return violated("MB-TIM-004", "tRP (PRE->ACT)", timing_.tRP,
                        ub.lastPreAt + timing_.tRP);
      if (rk.lastActAt >= 0 && at < rk.lastActAt + timing_.tRRD)
        return violated("MB-TIM-005", "tRRD (ACT->ACT same rank)", timing_.tRRD,
                        rk.lastActAt + timing_.tRRD);
      if (rk.actWindow.full() && at < rk.actWindow.front() + timing_.tFAW)
        return violated("MB-TIM-006", "tFAW (five ACTs in window)", timing_.tFAW,
                        rk.actWindow.front() + timing_.tFAW);
      ub.lastActAt = at;
      ub.openRow = da.row;
      ub.lastReadCasAt = -1;
      ub.lastWriteDataEndAt = -1;
      rk.lastActAt = at;
      // The ring's fixed capacity already drops the fifth-oldest entry;
      // additionally prune to the tFAW horizon at commit time: an entry
      // with front + tFAW <= at can never constrain a later command (every
      // subsequently *accepted* command has at' >= at, and an out-of-order
      // command fails MB-TIM-001 before the window is consulted), so
      // dropping it cannot change any verdict while keeping the shadow
      // history bounded by the constraint window, not the run length.
      rk.actWindow.push(at);
      while (!rk.actWindow.empty() && rk.actWindow.front() + timing_.tFAW <= at)
        rk.actWindow.popFront();
      break;
    }
    case DramCommand::Pre: {
      if (ub.openRow < 0)
        return violated("MB-TIM-007", "PRE to a precharged bank");
      if (ub.lastActAt >= 0 && at < ub.lastActAt + timing_.tRAS)
        return violated("MB-TIM-008", "tRAS (ACT->PRE)", timing_.tRAS,
                        ub.lastActAt + timing_.tRAS);
      if (ub.lastReadCasAt >= 0 && at < ub.lastReadCasAt + timing_.tRTP)
        return violated("MB-TIM-009", "tRTP (RD->PRE)", timing_.tRTP,
                        ub.lastReadCasAt + timing_.tRTP);
      if (ub.lastWriteDataEndAt >= 0 && at < ub.lastWriteDataEndAt + timing_.tWR)
        return violated("MB-TIM-010", "tWR (WR data->PRE)", timing_.tWR,
                        ub.lastWriteDataEndAt + timing_.tWR);
      ub.lastPreAt = at;
      ub.openRow = -1;
      break;
    }
    case DramCommand::Read:
    case DramCommand::Write: {
      if (ub.openRow != da.row)
        return violated("MB-TIM-011", "CAS to a row that is not open");
      if (ub.lastActAt >= 0 && at < ub.lastActAt + timing_.tRCD)
        return violated("MB-TIM-012", "tRCD (ACT->CAS)", timing_.tRCD,
                        ub.lastActAt + timing_.tRCD);
      if (lastCasAt_ >= 0 && at < lastCasAt_ + timing_.tCCD)
        return violated("MB-TIM-013", "tCCD (CAS->CAS)", timing_.tCCD,
                        lastCasAt_ + timing_.tCCD);
      if (cmd == DramCommand::Read && rk.lastWriteDataEndAt >= 0 &&
          at < rk.lastWriteDataEndAt + timing_.tWTR)
        return violated("MB-TIM-014", "tWTR (WR data->RD)", timing_.tWTR,
                        rk.lastWriteDataEndAt + timing_.tWTR);
      const Tick dataStart = at + timing_.tAA;
      const Tick dataEnd = dataStart + timing_.tBURST;
      Tick busReady = lastDataEndAt_;
      if (lastCasRank_ >= 0 && lastCasRank_ != da.rank) busReady += timing_.tRTRS;
      if (lastDataEndAt_ >= 0 && dataStart < busReady)
        return violated("MB-TIM-015", "data bus burst overlap / rank switch (tRTRS)",
                        timing_.tRTRS, busReady - timing_.tAA);
      lastDataEndAt_ = dataEnd;
      lastCasAt_ = at;
      lastCasRank_ = da.rank;
      if (cmd == DramCommand::Write) {
        ub.lastWriteDataEndAt = dataEnd;
        rk.lastWriteDataEndAt = dataEnd;
      } else {
        ub.lastReadCasAt = at;
      }
      break;
    }
    case DramCommand::Refresh:
      // Refresh legality (all banks precharged) is enforced by the device
      // model folding the PREs into the refresh start; nothing to track here.
      break;
  }
  // Commit the bus slot only now: a rejected command (softFail mode) must
  // not corrupt the shadow state used to validate later commands.
  if (cmd != DramCommand::Refresh) lastCmdAt_ = at;
  return true;
}


// ---- Serializable protocol -----------------------------------------------
//
// The shadow maps are FlatMaps sorted by key, so mapSorted's key sort is a
// no-op; it keeps the byte format visibly the same as before the container
// swap.

template <class Ar>
void TimingChecker::io(Ar& ar) {
  ar.mapSorted(ubanks_, 8, [&](UbankHistory& ub) {
    ar.i64(ub.lastActAt);
    ar.i64(ub.lastPreAt);
    ar.i64(ub.lastReadCasAt);
    ar.i64(ub.lastWriteDataEndAt);
    ar.i64(ub.openRow);
  });
  ar.mapSorted(ranks_, 8, [&](RankHistory& rk) {
    ar.i64(rk.lastActAt);
    ar.sub(rk.actWindow);
    ar.i64(rk.lastWriteDataEndAt);
  });
  ar.i64(lastCmdAt_);
  ar.i64(lastCasAt_);
  ar.i64(lastDataEndAt_);
  ar.i32(lastCasRank_);
  ar.i64(commandsChecked_);
}
MB_SNAP_IO_INSTANTIATE(TimingChecker);

}  // namespace mb::mc
