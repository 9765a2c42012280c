// Memory-access schedulers.
//
// The controller evaluates, for every queued request, the next DRAM command
// it needs and that command's earliest legal issue tick, then asks the
// scheduler to order the candidates. Three policies are provided:
//   - FCFS:    strictly oldest first.
//   - FR-FCFS: column-ready (row hit) first, then oldest (Rixner et al.).
//   - PAR-BS:  parallelism-aware batch scheduling (Mutlu & Moscibroda, the
//     paper's default, §VI-A): form a batch by marking up to `markingCap`
//     oldest requests per thread; marked requests beat unmarked; within the
//     marked set, threads are ranked shortest-job-first (fewest marked
//     requests); row hits break remaining ties, then age.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/ownership.hpp"
#include "common/types.hpp"
#include "mc/request.hpp"

namespace mb::mc {

enum class SchedulerKind { Fcfs, FrFcfs, ParBs };

std::string schedulerKindName(SchedulerKind kind);

/// Per-request information the controller hands to the scheduler.
struct Candidate {
  // Position of the request in the scheduler-visible read window, which is
  // also its position in the scheduler's queue view (both are appended and
  // erased together); -1 for a write. PAR-BS reads the request's batch mark
  // through it.
  int queueIndex = -1;
  std::uint64_t id = 0;  // the request's id (debug builds check it against queueIndex)
  ThreadId thread = 0;
  Tick arrival = 0;
  Tick earliestIssue = 0;  // earliest tick the next command may issue
  bool rowHit = false;     // next command is a CAS to an already-open row
  bool marked = false;     // filled by PAR-BS batching
  // Shortest-job-first thread rank (marked requests outstanding for the
  // candidate's thread), stamped by PAR-BS batch upkeep alongside `marked`
  // so the selection scan compares plain fields. Constant during one scan:
  // the per-thread counts only change at batch formation and dequeue.
  int rank = 0;
};

class MB_CHANNEL_LOCAL Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Choose among candidates whose earliestIssue <= now. Returns the index
  /// into `cands` of the winner, or -1 if no candidate is issuable at `now`.
  virtual int pick(std::vector<Candidate>& cands, Tick now) = 0;

  /// Both halves of the controller's priority gate from one scan:
  /// `issuable` is pick(cands, now); `overall` is the favourite ignoring
  /// issue readiness, i.e. pick(cands, kTickNever / 2) — the horizon the
  /// gate has always used as "infinitely far in the future". The base
  /// implementation literally makes those two calls (it doubles as the
  /// reference for the fused overrides in scheduler_test.cpp); concrete
  /// schedulers override with a single fused scan that is guaranteed to
  /// return identical indices, because both scans walk the candidates in
  /// the same order with the same strict-preference predicate.
  struct PickPair {
    int issuable = -1;
    int overall = -1;
  };
  virtual PickPair pickPair(std::vector<Candidate>& cands, Tick now) {
    PickPair p;
    p.issuable = pick(cands, now);
    p.overall = pick(cands, kTickNever / 2);
    return p;
  }

  /// Notify batching state: request entered / left the queue.
  virtual void onEnqueue(const MemRequest&) {}
  virtual void onDequeue(const MemRequest&) {}

  /// True when the read at `queueIndex` in the read window (see
  /// Candidate::queueIndex) belongs to the scheduler's current priority
  /// batch (PAR-BS marking); the controller's anti-row-steal guard lets a
  /// marked request precharge over unmarked older row users.
  virtual bool requestMarked(int /*queueIndex*/) const { return false; }

  /// True when the scheduler's per-request state lines up with the read
  /// window `readIds` (request ids in window order). A restored controller
  /// checks this once, so requestMarked() can index by window position.
  virtual bool tracksReadWindow(const std::vector<std::uint64_t>&) const {
    return true;
  }

  /// True when the next pick would (re)form a priority batch, i.e. calling
  /// the scheduler is itself a state change. The controller's batched-
  /// admission fast path must fall back to a full arbitration pass in that
  /// case: batch membership depends on the queue contents at formation
  /// time, so deferring the pick would mark a different set.
  virtual bool wouldFormBatch() const { return false; }

  /// Form a new priority batch now if wouldFormBatch(); returns whether it
  /// did. pick()/pickPair() do this first, so a caller only needs it on a
  /// pass that skips the pick (the controller's wake-only passes) or to
  /// learn that the marks changed.
  virtual bool formBatchIfDue() { return false; }

  virtual SchedulerKind kind() const = 0;
  std::string name() const { return schedulerKindName(kind()); }

  /// Serializable protocol. FCFS / FR-FCFS are stateless; PAR-BS carries
  /// its batch state across a checkpoint.
  MB_SNAP_ENTRY_POINTS(virtual, );

 private:
  // Private so a Scheduler& cannot reach this empty walk in place of a
  // subclass's: callers go through the virtual entry points (ar.sub()).
  template <class Ar> void io(Ar&) {}
};

std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind);

class MB_CHANNEL_LOCAL FcfsScheduler final : public Scheduler {
 public:
  int pick(std::vector<Candidate>& cands, Tick now) override;
  PickPair pickPair(std::vector<Candidate>& cands, Tick now) override;
  SchedulerKind kind() const override { return SchedulerKind::Fcfs; }
};

class MB_CHANNEL_LOCAL FrFcfsScheduler final : public Scheduler {
 public:
  int pick(std::vector<Candidate>& cands, Tick now) override;
  PickPair pickPair(std::vector<Candidate>& cands, Tick now) override;
  SchedulerKind kind() const override { return SchedulerKind::FrFcfs; }
};

class MB_CHANNEL_LOCAL ParBsScheduler final : public Scheduler {
 public:
  explicit ParBsScheduler(int markingCap = 5) : markingCap_(markingCap) {}

  int pick(std::vector<Candidate>& cands, Tick now) override;
  PickPair pickPair(std::vector<Candidate>& cands, Tick now) override;
  void onEnqueue(const MemRequest& req) override;
  void onDequeue(const MemRequest& req) override;
  SchedulerKind kind() const override { return SchedulerKind::ParBs; }

  /// Thread ids index a dense per-thread table, so a request (or a restored
  /// queue entry) must name one in [0, kMaxThreads). The simulator's threads
  /// are its core ids.
  static constexpr int kMaxThreads = 1 << 20;

  /// Whether the queued request `requestId` is marked in the current batch.
  /// A scan of the queue view, for tests and inspection only.
  bool isMarked(std::uint64_t requestId) const;
  bool requestMarked(int queueIndex) const override {
    return queueView_[static_cast<std::size_t>(queueIndex)].marked;
  }
  bool tracksReadWindow(const std::vector<std::uint64_t>& readIds) const override;
  bool wouldFormBatch() const override {
    return markedCount_ == 0 && !queueView_.empty();
  }
  bool formBatchIfDue() override;

  MB_SNAP_ENTRY_POINTS(, override);

 private:
  template <class Ar> void io(Ar& ar);
  void formBatch();
  /// Batch upkeep shared by pick()/pickPair(): formBatchIfDue(), then stamp
  /// each candidate's `marked` flag and rank.
  void prepareBatch(std::vector<Candidate>& cands);

  int markingCap_;
  // Controller-visible ids/threads/arrivals of everything in the read
  // window, in window order, so batch formation can mark the oldest per
  // thread. The batch mark lives on the entry: a candidate reads it through
  // its queueIndex with no lookup.
  struct QueueEntry {
    std::uint64_t id = 0;
    ThreadId thread = 0;
    Tick arrival = 0;
    bool marked = false;
  };
  std::vector<QueueEntry> queueView_;
  // Marked entries per thread id (dense; the thread's SJF rank) and in all.
  std::vector<int> markedPerThread_;
  int markedCount_ = 0;
  MB_SNAP_TRANSIENT(markedCount_, "the number of marked queue-view entries; load() recounts it from the restored marks");
};

}  // namespace mb::mc
