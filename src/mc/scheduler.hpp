// Memory-access schedulers.
//
// The controller keeps each queued request's next DRAM command and that
// command's timing cached in a record, and keeps the served records sorted
// by one packed priority key (priorityKey below; lower is served first).
// The scheduler decides that order. Three policies are provided:
//   - FCFS:    strictly oldest first.
//   - FR-FCFS: column-ready (row hit) first, then oldest (Rixner et al.).
//   - PAR-BS:  parallelism-aware batch scheduling (Mutlu & Moscibroda, the
//     paper's default, §VI-A): form a batch by marking up to `markingCap`
//     oldest requests per thread; marked requests beat unmarked; row hits
//     break ties, then, within the marked set, threads are ranked
//     shortest-job-first (fewest marked requests), then age.
// The orders differ only in their key function; the PAR-BS scheduler object
// also keeps the batch (which requests are marked, and each thread's rank).
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

/// What the schedulers order a queued request by.
struct PriorityFields {
  bool marked = false;  // in the current PAR-BS batch
  bool rowHit = false;  // next command is a CAS to the already-open row
  int threadRank = 0;   // PAR-BS shortest-job-first rank; read only when marked
  Tick arrival = 0;
  std::uint64_t id = 0;
};

/// The schedulers' pairwise order: true when `a` is strictly preferred over
/// `b`. Ties keep the request seen first, so a scan in queue order picks the
/// first of equals. This is the reference the packed keys must reproduce.
bool prefers(SchedulerKind kind, const PriorityFields& a, const PriorityFields& b);

/// Request ids and PAR-BS thread ranks must fit their key fields.
inline constexpr int kKeyIdBits = 48;
inline constexpr int kKeyThreadRankBits = 14;
inline constexpr std::uint64_t kKeyIdMask = (std::uint64_t{1} << kKeyIdBits) - 1;

/// The order as one key, lower first. Layout, MSB to LSB: [not marked:1]
/// [not a row hit:1][thread rank:14][request id:48]; FCFS uses only the id,
/// FR-FCFS the row-hit bit and the id. Age is the id: the controller keys
/// only the requests of one queue at a time, whose ids increase in queue
/// order while their arrival ticks never decrease, so id order is age order
/// with equal arrivals kept in queue order, exactly as prefers() resolves
/// them.
inline std::uint64_t priorityKey(SchedulerKind kind, const PriorityFields& f) {
  std::uint64_t k = f.id & kKeyIdMask;
  if (kind == SchedulerKind::Fcfs) return k;
  if (!f.rowHit) k |= std::uint64_t{1} << 62;
  if (kind == SchedulerKind::FrFcfs) return k;
  if (f.marked)
    k |= static_cast<std::uint64_t>(f.threadRank) << kKeyIdBits;
  else
    k |= std::uint64_t{1} << 63;
  return k;
}

/// Batch state behind the order. FCFS and FR-FCFS have none.
class MB_CHANNEL_LOCAL Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// A read entered / left the read window. The queue view is appended and
  /// erased with the window, so a read's window position is its index here.
  virtual void onEnqueue(const MemRequest&) {}
  virtual void onDequeue(int /*queueIndex*/, std::uint64_t /*requestId*/) {}

  /// True when the read at `queueIndex` in the read window belongs to the
  /// scheduler's current priority batch (PAR-BS marking); the controller's
  /// anti-row-steal guard lets a marked request precharge over unmarked
  /// older row users.
  virtual bool requestMarked(int /*queueIndex*/) const { return false; }
  /// Shortest-job-first rank of a thread with marked requests: its number
  /// of marked requests. Changes only when a batch forms or one of the
  /// thread's marked requests leaves.
  virtual int threadRank(ThreadId /*thread*/) const { return 0; }

  /// True when the scheduler's per-request state lines up with the read
  /// window `readIds` (request ids in window order). A restored controller
  /// checks this once, so requestMarked() can index by window position.
  virtual bool tracksReadWindow(const std::vector<std::uint64_t>&) const {
    return true;
  }

  /// True when the next arbitration pass would (re)form a priority batch.
  /// The controller's batched-admission fast path must fall back to a full
  /// arbitration pass in that case: batch membership depends on the queue
  /// contents at formation time, so deferring the pass would mark a
  /// different set.
  virtual bool wouldFormBatch() const { return false; }

  /// Form a new priority batch now if wouldFormBatch(); returns whether it
  /// did (the marks and ranks changed).
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
  SchedulerKind kind() const override { return SchedulerKind::Fcfs; }
};

class MB_CHANNEL_LOCAL FrFcfsScheduler final : public Scheduler {
 public:
  SchedulerKind kind() const override { return SchedulerKind::FrFcfs; }
};

class MB_CHANNEL_LOCAL ParBsScheduler final : public Scheduler {
 public:
  explicit ParBsScheduler(int markingCap = 5);

  void onEnqueue(const MemRequest& req) override;
  void onDequeue(int queueIndex, std::uint64_t requestId) override;
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
  int threadRank(ThreadId thread) const override {
    return markedPerThread_[static_cast<std::size_t>(thread)];
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

  int markingCap_;
  // Controller-visible ids/threads/arrivals of everything in the read
  // window, in window order, so batch formation can mark the oldest per
  // thread. The batch mark lives on the entry, so a read's window position
  // reaches it with no lookup.
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
