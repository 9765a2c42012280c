// Incremental DRAM protocol-timing validator.
//
// The controller can feed every command it issues into this checker, which
// keeps O(1) state per structure and flags any violation of:
//   same μbank:  ACT->CAS >= tRCD, ACT->PRE >= tRAS, PRE->ACT >= tRP,
//                CAS only to the open row, read CAS->PRE >= tRTP,
//                write-data-end->PRE >= tWR
//   same rank:   ACT->ACT >= tRRD, <= 4 ACTs in any tFAW window
//   same channel: command slots >= tCMD apart, CAS->CAS >= tCCD,
//                data bursts non-overlapping, write-data->read CAS >= tWTR
//
// Every violation is materialized as an analysis::Diagnostic carrying a
// stable MB-TIM-0xx code, the offending command and address, the violated
// constraint with its bound and earliest-legal tick, and the full shadow
// history of the μbank / rank / channel involved. Disposition:
//   - `diagnostics` attached: the diagnostic is reported to the engine and
//     onCommand returns false — collection mode for property tests and
//     post-mortem tooling.
//   - `softFail` set: onCommand returns false silently (the checker's own
//     unit tests probe individual constraints this way).
//   - otherwise: the rendered diagnostic goes to stderr and the process
//     aborts — a timing violation inside a real run is an unrecoverable
//     modelling bug.
//
// Property tests drive random traffic through a controller with the checker
// enabled; the checker itself is unit-tested against hand-built sequences.
#pragma once

#include <cstdint>

#include "analysis/diagnostic.hpp"
#include "ckpt/serialize.hpp"
#include "common/flat_map.hpp"
#include "common/ownership.hpp"
#include "common/types.hpp"
#include "core/address_map.hpp"
#include "dram/timing.hpp"
#include "mc/device_state.hpp"

namespace mb::mc {

class MB_CHANNEL_LOCAL TimingChecker {
 public:
  TimingChecker(const dram::Geometry& geom, const dram::TimingParams& timing)
      : geom_(geom), timing_(timing) {}

  /// Validate and record one command. `row` is meaningful for ACT and CAS.
  /// Returns false (instead of aborting) when `softFail` is set or a
  /// diagnostics engine is attached.
  bool onCommand(DramCommand cmd, const core::DramAddress& da, Tick at);

  /// A refresh closed rows (the device folds the implicit precharges into
  /// the refresh window): reset shadow row state for the whole rank
  /// (bank = -1, all-bank REF) or one bank (per-bank REF).
  void onRankRefresh(int channel, int rank, int bank = -1);

  /// The perfect-oracle page policy retroactively decided this μbank's row
  /// was closed after its last access (no physical PRE was modelled): reset
  /// the shadow row state so the following ACT validates.
  void onOraclePre(const core::DramAddress& da);

  std::int64_t commandsChecked() const { return commandsChecked_; }

  /// Deepest per-rank ACT history currently retained. Commit-time pruning
  /// bounds this at 4 entries (the tFAW occupancy limit) no matter how long
  /// the run is; exposed so tests can assert the bound holds.
  std::size_t maxActWindowDepth() const {
    std::size_t deepest = 0;
    for (const auto& [key, rk] : ranks_) {
      const auto depth = static_cast<std::size_t>(rk.actWindow.size());
      if (depth > deepest) deepest = depth;
    }
    return deepest;
  }

  bool softFail = false;
  /// Optional structured sink: violations are reported here (and onCommand
  /// returns false) instead of aborting. Not owned. Declared seam: one
  /// diagnostics engine is shared by every channel's checker in a run.
  MB_CHANNEL_IFACE(DiagnosticEngine)
  analysis::DiagnosticEngine* diagnostics = nullptr;

  /// Serializable protocol: the shadow maps iterate sorted by key, so the
  /// snapshot bytes are key-ordered by construction.
  template <class Ar> void io(Ar& ar);
  MB_SNAP_ENTRY_POINTS(, );

 private:
  struct UbankHistory {
    Tick lastActAt = -1;
    Tick lastPreAt = -1;
    Tick lastReadCasAt = -1;
    Tick lastWriteDataEndAt = -1;
    std::int64_t openRow = -1;
  };
  struct RankHistory {
    Tick lastActAt = -1;
    /// Recent ACT times, pruned at commit to the tFAW horizon; the ring's
    /// fixed four-slot capacity is the tFAW occupancy bound itself, so the
    /// shadow history stays bounded by the constraint window however long
    /// the recorded run is.
    ActRing actWindow;
    Tick lastWriteDataEndAt = -1;
  };

  /// Describes one violated constraint for the diagnostic renderers.
  struct Violation {
    const char* code;        // stable registry code, e.g. "MB-TIM-012"
    const char* constraint;  // human label, e.g. "tRCD (ACT->CAS)"
    Tick bound = -1;         // the timing parameter value, if applicable
    Tick earliestLegal = -1; // first tick at which the command would pass
  };

  bool fail(const Violation& v, DramCommand cmd, const core::DramAddress& da,
            Tick at, const UbankHistory& ub, const RankHistory& rk);

  dram::Geometry geom_;
  MB_SNAP_TRANSIENT(geom_, "structural; rebuilt from the run configuration and cross-checked by the snapshot geometry echo");
  dram::TimingParams timing_;
  // Shadow histories in sorted flat maps: maxActWindowDepth() and the
  // snapshot writer both walk them, and a walk that fed a report in
  // hash-table order would not be reproducible across library versions or
  // ASLR seeds (MB-DET-001). Key order == packUbankKey order.
  FlatMap<std::int64_t, UbankHistory> ubanks_;
  FlatMap<std::int64_t, RankHistory> ranks_;
  Tick lastCmdAt_ = -1;
  Tick lastCasAt_ = -1;
  Tick lastDataEndAt_ = -1;
  int lastCasRank_ = -1;
  std::int64_t commandsChecked_ = 0;
};

}  // namespace mb::mc
