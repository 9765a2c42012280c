// Memory controller: request queues, scheduling, command generation, page
// management, and energy/statistics accounting for one DRAM channel.
//
// Operation (event-driven):
//   - enqueue() decomposes the address, applies write forwarding/coalescing,
//     resolves any outstanding page-policy speculation for the target μbank,
//     and wakes the command engine.
//   - kick() runs arbitration passes until nothing is issuable. Each queued
//     request has a persistent record: its scheduling fields, its next
//     command and that command's μbank timing term, its PAR-BS mark and
//     thread rank, and its priority key (scheduler.hpp), all cached. A record
//     keeps one slot while queued and is linked into a list per μbank, so a
//     pass recomputes only the records on μbanks dirtied since the last pass
//     and finds them without a sweep of the queues. The served records that may issue are kept in key order per
//     (rank, command) class, with each class's minimum μbank term; every
//     record of a class shares the rank's floor for that command. A pass
//     walks the classes whose floor has passed, merged in key order, and
//     commits the first record whose term has passed too. A pass that
//     starts with the command bus busy cannot issue, so it only computes the
//     wake tick, as does a pass that finds nothing issuable: the minimum
//     over the classes of max(floor, minimum term). kick() schedules its own
//     wake-up at that tick (or at the next refresh), and returns at once
//     when nothing changed since that wake-up was armed.
//   - After the last column access for a μbank with no pending work, the
//     page-management policy decides whether to keep the row open, close it
//     (an idle precharge is queued), or — for the perfect oracle — leave the
//     decision unresolved to be charged retroactively (§V).
//
// The request queue has a scheduler-visible window of `queueDepth` entries
// (32 by default, §VI-A); requests beyond that wait in an overflow FIFO.
// Writes are posted and drained in bursts between read bundles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/restore.hpp"
#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"
#include "common/flat_map.hpp"
#include "common/ownership.hpp"
#include "common/shard_mailbox.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/address_map.hpp"
#include "core/page_policy.hpp"
#include "dram/energy.hpp"
#include "mc/command_log.hpp"
#include "mc/device_state.hpp"
#include "mc/request.hpp"
#include "mc/request_arena.hpp"
#include "mc/scheduler.hpp"
#include "mc/timing_checker.hpp"

namespace mb::mc {

struct ControllerConfig {
  int queueDepth = 32;        // scheduler-visible read window (§VI-A)
  int writeQueueDepth = 64;
  int writeHighWatermark = 48;  // enter write-drain mode
  int writeLowWatermark = 16;   // leave write-drain mode
  SchedulerKind scheduler = SchedulerKind::ParBs;
  core::PolicyKind pagePolicy = core::PolicyKind::Open;
  bool enableTimingCheck = false;
  bool refreshEnabled = true;
  bool perBankRefresh = false;  // extension: rotate tRFCpb refreshes per bank
  /// Optional sink for structured protocol diagnostics. When set (together
  /// with enableTimingCheck), timing violations are collected here instead
  /// of aborting the process. Not owned; must outlive the controller.
  analysis::DiagnosticEngine* diagnostics = nullptr;
  /// Optional command-stream sink: fed every committed command (including
  /// policy-initiated idle precharges), refresh interval, and oracle
  /// pseudo-precharge, in issue order — the capture side of the offline
  /// trace auditor (analysis/trace_audit.hpp). Not owned.
  CommandLog* commandLog = nullptr;
};

/// Aggregated per-controller statistics snapshot.
struct ControllerStats {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t rowHits = 0;       // serviced with no ACT needed
  std::int64_t rowMisses = 0;     // bank was precharged
  std::int64_t rowConflicts = 0;  // a different row had to be closed first
  std::int64_t forwardedReads = 0;
  std::int64_t specDecisions = 0;
  std::int64_t specCorrect = 0;
  double avgReadLatencyNs = 0.0;
  double avgQueueOccupancy = 0.0;
  double dataBusUtilization = 0.0;
  std::int64_t activations = 0;
  std::int64_t refreshes = 0;
  // Host-side arbitration work, deterministic for a given run: kick()
  // calls, passes over the queues, passes that started with the command bus
  // busy (wake-only: no pick), PAR-BS batch formations, records priced by
  // the key-ordered pick walk, records whose cached command and timing term
  // were recomputed, precharge candidates checked against their μbank's
  // open-row users, kicks that could change nothing (see kick()), and
  // commands committed (ACT, PRE and CAS, idle closes included). Counted
  // since construction or restore (not checkpointed) and kept out of the
  // report.
  std::int64_t kicks = 0;
  std::int64_t arbPasses = 0;
  std::int64_t wakeOnlyPasses = 0;
  std::int64_t batchFormations = 0;
  std::int64_t candidatesEvaluated = 0;
  std::int64_t candidateRefreshes = 0;
  std::int64_t preBlockVisits = 0;
  std::int64_t noopKicks = 0;
  std::int64_t commandsIssued = 0;

  double rowHitRate() const {
    const auto total = rowHits + rowMisses + rowConflicts;
    return total == 0 ? 0.0 : static_cast<double>(rowHits) / static_cast<double>(total);
  }
  double predictorHitRate() const {
    return specDecisions == 0
               ? 0.0
               : static_cast<double>(specCorrect) / static_cast<double>(specDecisions);
  }
};

class MB_CHANNEL_LOCAL MemoryController {
 public:
  MemoryController(ChannelId id, const dram::Geometry& geom,
                   const dram::TimingParams& timing, const dram::EnergyParams& energy,
                   const core::AddressMap& addressMap, const ControllerConfig& config,
                   EventQueue& eventQueue);

  /// Submit a request. Ownership of the callback transfers; writes complete
  /// immediately from the caller's perspective (posted).
  void enqueue(MemRequest req);

  /// Number of requests (read + write) not yet fully serviced.
  int outstanding() const {
    return static_cast<int>(readQ_.size() + overflowQ_.size() + writeQ_.size());
  }

  ControllerStats stats() const;

  const dram::EnergyMeter& energyMeter() const { return meter_; }
  const ChannelState& channel() const { return channel_; }
  const core::AddressMap& addressMap() const { return map_; }
  ChannelId id() const { return id_; }

  /// Elapsed-time hook used to finalize time-integrated statistics.
  void finalize(Tick simEnd);

  /// Wire the cross-shard message port (sharded engine). When set, read
  /// completions are posted through it instead of being invoked from this
  /// channel's queue; must be wired before the first enqueue() and before
  /// load() when restoring. Null reverts to direct completion.
  void setMailbox(ShardMailbox* mailbox) { mailbox_ = mailbox; }

  /// Rebuilds read-completion callbacks on restore: given the request's
  /// address and core, return the callback the original requester would have
  /// supplied. Must be set before load() when the snapshot carries in-flight
  /// completions; the system wires it to the memory hierarchy.
  std::function<CompletionFn(std::uint64_t addr, CoreId core)> completionFactory;
  /// Cores a restored request or completion may name: [0, coreCount).
  /// Wired with completionFactory; anything outside fails load().
  int coreCount = 0;

  /// Serializable protocol (mutable state only; geometry/timing/config come
  /// from construction and are covered by the snapshot's config hash).
  template <class Ar> void io(Ar& ar);
  MB_SNAP_ENTRY_POINTS(, );
  /// Re-arm the controller's pending events (wake-ups and in-flight read
  /// completions) after load(); original event order is preserved via the
  /// saved sequence numbers.
  void reschedule(ckpt::EventRestorer& er);

  /// Outstanding wake-up events, sorted ascending by tick (tests /
  /// invariants: steady-state idle leaves this empty, a quiescent busy
  /// controller holds at most a handful of transient entries).
  struct KickEvent {
    Tick at = 0;
    EventStamp stamp;
  };
  const std::vector<KickEvent>& pendingKickEvents() const { return kickEvents_; }
  /// In-flight read completions currently occupying pool slots.
  std::size_t liveCompletionCount() const { return liveCompletions_; }
  /// Request-arena occupancy (tests / invariants: zero when idle).
  std::size_t liveRequestCount() const { return pool_.liveCount(); }

 private:
  struct Pending {
    MemRequest req;
    // Address projections cached at admission so records and queue scans
    // never re-derive them from the DramAddress fields.
    std::int64_t flat = -1;  // system-wide flat μbank id (policy/map keys)
    int ub = -1;             // channel-local μbank index (timing arrays)
    bool sawConflict = false;  // a foreign row had to be precharged
    bool sawAct = false;       // an activation was needed
  };
  struct Speculation {
    core::PageDecision decision;
    std::int64_t row;  // open row when the decision was made
    ThreadId thread;   // thread whose access triggered the decision
  };
  /// Dense per-μbank speculation slot (see speculations_ below).
  struct SpecSlot {
    Speculation s{};
    bool live = false;
  };

  /// In-flight read completion, reified so a checkpoint can capture it. The
  /// event-queue closure captures only the token; the callback itself lives
  /// here and is rebuilt through completionFactory on restore. In mailbox
  /// (sharded) mode the callback is posted to the CPU side at schedule time
  /// and `cb` stays empty; `msgStamp` records the posted message's identity
  /// so a restore can re-post it in the same merge position.
  struct InflightCompletion {
    EventStamp stamp;     // channel-local release event (restore ordering)
    EventStamp msgStamp;  // CPU-bound delivery message (mailbox mode)
    Tick due = 0;
    std::uint64_t addr = 0;
    CoreId core = 0;
    CompletionFn cb;
  };

  /// One arbitration run at now(); `woken` when the armed wake-up fired.
  void kick(bool woken = false);
  void scheduleKick(Tick at);
  void armKick(Tick at);
  void onKickEventFired(Tick at);
  void eraseKickEvent(Tick at);
  void scheduleCompletion(CompletionFn cb, Tick due, std::uint64_t addr,
                          CoreId core);
  int allocCompletionSlot();
  void fireCompletion(int slot, std::uint64_t token);
  /// One queued request; loading allocates its arena slot into `h`.
  template <class Ar> void ioPending(Ar& ar, ReqHandle& h);
  void resolveSpeculation(std::int64_t flat, int ub, std::int64_t incomingRow);
  void onRequestServiced(int slot, Tick dataEnd);
  void maybeSpeculate(const core::DramAddress& da, std::int64_t flat, int ub,
                      ThreadId thread);
  void refillVisibleWindow();

  /// One queued request as arbitration sees it. The scheduling fields are
  /// copied from the request at admission, so a pass never touches the
  /// arena; `next`, `term` and `key` are cached and recomputed only when the
  /// request's μbank is dirtied (markDirty), `marked`, `threadRank` and
  /// `key` also when the batch changes. A record stays in one slot (its
  /// request's arena index) from admission to service, so the key classes
  /// and the per-μbank lists name it by slot while the queues shift.
  struct Record {
    ReqHandle h;
    std::uint64_t id = 0;
    std::uint64_t key = 0;  // priorityKey of the cached fields
    Tick arrival = 0;
    std::int64_t row = 0;
    // ChannelState::ubankTerm(next, ub), or kTickNever while the
    // anti-row-steal guard holds this request's precharge back (or before
    // the first refresh). A served record is in its key class exactly when
    // this is not kTickNever.
    Tick term = kTickNever;
    int ub = 0;
    int rank = 0;
    ThreadId thread = 0;
    int threadRank = 0;   // scheduler_->threadRank(thread) while marked, else 0
    bool write = false;
    bool marked = false;  // scheduler_->requestMarked(window position)
    DramCommand next = DramCommand::Act;
    // The other records on this μbank (slots, -1 ends the list).
    int prevOnUb = -1;
    int nextOnUb = -1;
  };
  Record& rec(int slot) { return recs_[static_cast<std::size_t>(slot)]; }
  const Record& rec(int slot) const { return recs_[static_cast<std::size_t>(slot)]; }
  static int slotOf(ReqHandle h) { return static_cast<int>(h.idx); }
  /// Build the record of the request `h` entering the read window or the
  /// write queue, and link it into its μbank's list.
  Record& placeRecord(ReqHandle h);
  /// Unlink a serviced request's record from its μbank's list.
  void unlinkRecord(const Record& r);
  /// Calls f(record, pos) for every served record, reads first; `pos` is a
  /// read's window index (>= 0, also its scheduler queue index), or ~i for
  /// writeQ_[i].
  template <class F> void forEachServed(bool reads, bool writes, F&& f);
  void markDirty(int ub) {
    if (ubDirty_[static_cast<std::size_t>(ub)] != 0) return;
    ubDirty_[static_cast<std::size_t>(ub)] = 1;
    dirtyUbs_.push_back(ub);
  }
  void markAllDirty() { allDirty_ = true; }
  /// Recompute the served records on dirtied μbanks, found through the
  /// μbanks' record lists (every record when the serve flags changed since
  /// the last refresh), and move them between key classes, then clear the
  /// marks.
  void refreshRecords(bool servingReads, bool servingWrites);
  bool preBlockedByOlderRowUser(const Record& r) const;
  /// Earliest legal tick of the record's next command, from the rank
  /// floors of the current pass (floors_) and the cached μbank term.
  Tick earliestOf(const Record& r) const {
    return std::max(floors_[static_cast<std::size_t>(r.rank)]
                           [static_cast<std::size_t>(r.next)],
                    r.term);
  }
  PriorityFields fieldsOf(const Record& r) const {
    return PriorityFields{r.marked,
                          r.next == DramCommand::Read || r.next == DramCommand::Write,
                          r.threadRank, r.arrival, r.id};
  }
  void rekey(Record& r) const { r.key = priorityKey(schedKind_, fieldsOf(r)); }

  /// The served records that may issue (term != kTickNever) of one rank and
  /// next command, as (key, term, slot) in ascending key order: they share
  /// the rank's floor for that command, so the first one in key order whose
  /// term has passed is the class's pick. Keys are unique (they end in the
  /// request id).
  struct KeyClass {
    struct Entry {
      std::uint64_t key;
      Tick term;
      int slot;
    };
    static bool byKey(const Entry& a, const Entry& b) { return a.key < b.key; }
    /// The entry of `key`, or where it would go.
    std::vector<Entry>::iterator find(std::uint64_t key) {
      return std::lower_bound(items.begin(), items.end(), Entry{key, 0, 0}, byKey);
    }
    std::vector<Entry> items;
    Tick minTerm = kTickNever;  // over items; recomputed on use when stale
    bool minStale = false;
  };
  int classOf(const Record& r) const { return r.rank * 4 + static_cast<int>(r.next); }
  Tick floorOf(int cls) const {
    return floors_[static_cast<std::size_t>(cls / 4)][static_cast<std::size_t>(cls % 4)];
  }
  void classInsert(const Record& r);
  void classErase(int cls, std::uint64_t key, Tick term);
  /// A record kept its class and key; only its term moved.
  void classRetime(int cls, std::uint64_t key, Tick oldTerm, Tick term);
  Tick classMinTerm(KeyClass& c);
  /// Calls f(index, class) for every non-empty class.
  template <class F> void forEachClass(F&& f);
  void setClassBit(std::size_t cls, bool nonEmpty) {
    const std::uint64_t bit = std::uint64_t{1} << (cls & 63);
    if (nonEmpty)
      classBits_[cls >> 6] |= bit;
    else
      classBits_[cls >> 6] &= ~bit;
  }
  /// Refill every class from the served records' cached fields.
  void rebuildClasses(bool servingReads, bool servingWrites);
  /// The earliest tick any classed record may issue: min over the classes
  /// of max(floor, minimum term).
  Tick classWake();
  /// The pass's pick: the first issuable record in key order, as a slot or
  /// kNoSlot, and the first record overall (the priority gate's favourite)
  /// as its key and earliest tick.
  static constexpr int kNoSlot = -1;
  struct Pick {
    int issuable = kNoSlot;
    std::uint64_t issuableKey = 0;
    std::uint64_t favouriteKey = 0;
    Tick favouriteAt = kTickNever;
  };
  Pick pickByKey(Tick now);
  /// A pick's position in one class it merges.
  struct Cursor {
    const KeyClass::Entry* at;
    const KeyClass::Entry* end;
  };
  /// Debug builds: every served record's cache matches a from-scratch
  /// evaluation against the ChannelState earliest* reference, the served
  /// queue is in id order with non-decreasing arrivals, and the key
  /// classes hold exactly the served records that may issue.
  void checkRecords(bool servingReads, bool servingWrites, Tick now);
  /// Debug builds: the pick equals a scan of the served records in queue
  /// order under prefers() with the scheduler's own marks and ranks.
  void checkPick(const Pick& pick, bool servingReads, bool servingWrites, Tick now);
  /// Form a PAR-BS batch if the last one drained, and restamp the read
  /// window's marks, ranks and keys. A new batch changes the marks the
  /// anti-row-steal guard reads, so every record is dirtied; the guard
  /// verdicts (and so the class membership) stay those computed under the
  /// old marks until the next refresh.
  bool formBatchIfDue();
  /// A marked read of `thread` left: restamp its remaining marked reads'
  /// rank and key, and move them to their new places in their classes.
  void rerankThread(ThreadId thread);
  /// Commit the cached next command of the record in `slot`.
  void issueFor(int slot, Tick now);
  /// Which queues the scheduler is currently drawing candidates from.
  void serveFlags(bool& reads, bool& writes) const;

  ChannelId id_;
  dram::Geometry geom_;
  MB_SNAP_TRANSIENT(geom_, "structural; rebuilt from the run configuration and cross-checked by the snapshot geometry echo");
  core::AddressMap map_;
  MB_SNAP_TRANSIENT(map_, "structural; derived from geom_ and the configured mapping, never simulation state");
  ControllerConfig cfg_;
  MB_SNAP_TRANSIENT(cfg_, "structural parameter block; identity across save/restore is enforced by the snapshot configHash");
  // Declared seam: the controller schedules itself through its (per-shard)
  // event queue.
  MB_CHANNEL_IFACE(EventQueue)
  EventQueue& eq_;
  // Declared seam: read completions leave the channel through the shard
  // mailbox when one is wired (sharded engine); null means completions run
  // directly on eq_ (single-queue unit fixtures).
  MB_CHANNEL_IFACE(ShardMailbox)
  ShardMailbox* mailbox_ = nullptr;

  ChannelState channel_;
  dram::EnergyMeter meter_;
  std::unique_ptr<Scheduler> scheduler_;
  SchedulerKind schedKind_;
  MB_SNAP_TRANSIENT(schedKind_, "structural; the configured scheduler's kind");
  std::unique_ptr<core::PagePolicy> policy_;
  std::optional<TimingChecker> checker_;

  // Request records live in a per-controller slot arena; the queues hold
  // generation-tagged handles, so steady-state admission/retire traffic does
  // no per-request heap allocation (the pool grows to the high-water mark of
  // concurrent requests and is then recycled via its free list).
  RequestArena<Pending> pool_;
  std::vector<ReqHandle> readQ_;  // scheduler-visible reads
  std::deque<ReqHandle> overflowQ_;
  std::vector<ReqHandle> writeQ_;
  // The records of the read window and the write queue, by arena slot.
  std::vector<Record> recs_;
  MB_SNAP_TRANSIENT(recs_, "derived from the queued requests; load() rebuilds a record per read-window and write-queue entry");
  // Head slot of each channel-local μbank's record list (-1: none).
  std::vector<int> ubHead_;
  MB_SNAP_TRANSIENT(ubHead_, "derived with recs_; load() relinks every record");
  bool drainingWrites_ = false;

  // Idle precharges requested by the page policy, keyed by flat μbank id.
  // Ordered (not hashed) because kick() iterates it: the scan order must be
  // reproducible across processes for checkpoint/restore equivalence.
  std::map<std::int64_t, core::DramAddress> pendingCloses_;
  // Unresolved speculative page decisions, one slot per channel-local μbank
  // (indexed by ChannelState::ubankIndex). Dense direct indexing replaces a
  // sorted flat map keyed by system-wide flat μbank id: with up to one live
  // entry per idle μbank the map's O(n) insert/erase memmoves dominated the
  // admission path. Serialization still walks slots in index order and
  // writes flat-μbank keys — for a fixed channel, flat id is channelBase +
  // ubankIndex, so the byte stream is identical to the sorted-map layout
  // (MB-DET-001: iteration order is index order by construction).
  std::vector<SpecSlot> speculations_;
  std::int64_t liveSpeculations_ = 0;

  Tick nextKickAt_ = kTickNever;
  // Tick of the last full kick(); the batched-admission fast path in
  // enqueue() is only legal when a full arbitration pass (including the
  // refresh catch-up) already ran at the current tick. Serialized so a
  // restored run takes the same fast/full decisions as the cold run.
  Tick lastKickTick_ = -1;
  // Outstanding wake-up events, one per distinct tick (armKick dedupes), so
  // a checkpoint can reify them. Kept as a flat vector sorted ascending by
  // tick: the live set is 0–2 entries in steady state, so insert/erase are
  // effectively O(1) and — unlike the std::map it replaces — arming a kick
  // allocates nothing.
  std::vector<KickEvent> kickEvents_;
  std::uint64_t nextRequestId_ = 1;
  // In-flight read completions in a slot pool with an intrusive free list:
  // tokens stay monotonically increasing (they define checkpoint order and
  // validate that a fired event matches the slot's current occupant), but
  // slots are recycled so steady-state completion traffic stops allocating
  // map nodes.
  struct CompletionSlot {
    bool live = false;
    std::uint64_t token = 0;
    std::int32_t nextFree = -1;
    InflightCompletion c;
  };
  std::vector<CompletionSlot> completionSlots_;
  std::int32_t freeCompletionSlot_ = -1;
  MB_SNAP_TRANSIENT(freeCompletionSlot_, "intrusive free-list head; load() rebuilds the chain from the serialized live slots");
  std::size_t liveCompletions_ = 0;
  std::uint64_t nextCompletionToken_ = 0;
  // Arbitration scratch, reused across kick() iterations so the hot loop
  // performs no per-iteration vector allocations.
  std::vector<ChannelState::CommandFloors> floors_;  // per rank, this pass
  MB_SNAP_TRANSIENT(floors_, "per-pass scratch");
  // A refreshed record's slot and the class entry it had.
  struct Touched {
    int slot;
    bool inClass;
    int cls;
    std::uint64_t key;
    Tick term;
  };
  std::vector<Touched> touched_;
  MB_SNAP_TRANSIENT(touched_, "per-refresh scratch");
  // Key classes, indexed rank * 4 + command (see KeyClass).
  std::vector<KeyClass> classes_;
  MB_SNAP_TRANSIENT(classes_, "derived from the records by each refresh; load() dirties every μbank");
  // One bit per class, set while it holds a record.
  std::vector<std::uint64_t> classBits_;
  MB_SNAP_TRANSIENT(classBits_, "derived with classes_");
  std::vector<Cursor> cursors_;  // one per class, for pickByKey
  MB_SNAP_TRANSIENT(cursors_, "per-pass scratch");
  // Queued requests (read window, overflow and write queue) per
  // channel-local μbank: the page policy speculates only on a μbank with
  // none left.
  std::vector<int> queuedOnUb_;
  MB_SNAP_TRANSIENT(queuedOnUb_, "derived from the queues; load() recounts it");
  // Dirty μbanks: a record's cached command and term are stale once its
  // μbank saw a commit, a refresh, a lazy resolution, an enqueue or a
  // dequeue; a serve-flag flip or a batch formation dirties every μbank.
  std::vector<std::uint8_t> ubDirty_;
  MB_SNAP_TRANSIENT(ubDirty_, "record-cache bookkeeping; load() dirties every μbank");
  std::vector<int> dirtyUbs_;
  MB_SNAP_TRANSIENT(dirtyUbs_, "record-cache bookkeeping; load() dirties every μbank");
  bool allDirty_ = true;
  MB_SNAP_TRANSIENT(allDirty_, "record-cache bookkeeping; load() sets it");
  // The serve flags the records were last refreshed under.
  bool servedReads_ = false;
  MB_SNAP_TRANSIENT(servedReads_, "record-cache bookkeeping; load() dirties every μbank");
  bool servedWrites_ = false;
  MB_SNAP_TRANSIENT(servedWrites_, "record-cache bookkeeping; load() dirties every μbank");
  // Oldest arrival among the served requests that want each μbank's open
  // row, over all of them and over batch-marked ones, indexed by
  // channel-local μbank. Rebuilt for the dirtied μbanks by each record
  // refresh; a slot belongs to the current refresh only when its `pass`
  // matches rowUsersPass_, so a refresh never has to clear the table.
  struct RowUsers {
    std::uint64_t pass = 0;
    Tick oldest = kTickNever;
    Tick oldestMarked = kTickNever;
  };
  std::vector<RowUsers> rowUsers_;
  MB_SNAP_TRANSIENT(rowUsers_, "derived by each record refresh from the queues and open rows");
  std::uint64_t rowUsersPass_ = 0;
  MB_SNAP_TRANSIENT(rowUsersPass_, "generation tag of rowUsers_, derived per refresh");

  // Statistics.
  Counter reads_, writes_, rowHits_, rowMisses_, rowConflicts_, forwarded_;
  Counter specDecisions_, specCorrect_;
  Accumulator readLatencyNs_;
  TimeWeightedLevel queueOcc_;
  Tick finalizedAt_ = 0;
  // Host-work counters (see ControllerStats::kicks).
  std::int64_t kicks_ = 0;
  MB_SNAP_TRANSIENT(kicks_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t arbPasses_ = 0;
  MB_SNAP_TRANSIENT(arbPasses_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t wakeOnlyPasses_ = 0;
  MB_SNAP_TRANSIENT(wakeOnlyPasses_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t batchFormations_ = 0;
  MB_SNAP_TRANSIENT(batchFormations_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t candidatesEvaluated_ = 0;
  MB_SNAP_TRANSIENT(candidatesEvaluated_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t candidateRefreshes_ = 0;
  MB_SNAP_TRANSIENT(candidateRefreshes_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t preBlockVisits_ = 0;
  MB_SNAP_TRANSIENT(preBlockVisits_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t noopKicks_ = 0;
  MB_SNAP_TRANSIENT(noopKicks_, "host-work counter; counts from construction or restore, outside the report");
  std::int64_t commandsIssued_ = 0;
  MB_SNAP_TRANSIENT(commandsIssued_, "host-work counter; counts from construction or restore, outside the report");
};

}  // namespace mb::mc
