// Conservative-window execution engine (DESIGN.md §14).
//
// The system decomposes into one EventQueue per memory channel (controller +
// device state + timing checker) plus one queue for the whole CPU hierarchy.
// Each iteration of ShardedEngine::run advances every queue through one
// bounded window [t0, t1):
//
//   t0 = earliest pending work anywhere (queue heads and buffered messages),
//   t1 = t0 + lookahead, clamped to a pending checkpoint tick.
//
// The lookahead is the minimum latency of any channel → CPU interaction
// (tCMD: even a forwarded read costs one command transfer), so nothing a
// channel does inside a window can affect the CPU side before t1. CPU →
// channel latency may be zero, which is legal because the CPU phase (A) runs
// to completion *before* the channel phase (B) within every window; an
// admission posted during A with due < t1 is delivered and executed in the
// same window's B. Phase B runs the channels one after another in index
// order; each only touches its own state, so the order among channels is
// not observable. Cross-window messages are buffered in the mailbox until
// the window whose span covers their due tick, then materialized on the
// destination queue under the EventStamp minted at post time — merge order
// is fixed by the sender's (when, stamp) key, never by delivery order, so
// reports, command traces and snapshots are pinned by the golden corpus.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "common/event_queue.hpp"
#include "common/inline_function.hpp"
#include "common/ownership.hpp"
#include "common/shard_mailbox.hpp"
#include "common/types.hpp"
#include "mc/command_log.hpp"
#include "mc/request.hpp"

namespace mb::sim {

/// Per-channel capture buffer for the committed command stream. Channels run
/// their windows one after another, so feeding the shared mc::CommandLog
/// sink directly would group commands by channel; each controller instead
/// writes into its own buffer, tagged with the *executing event's* ordering
/// key — not the command's own tick, because the perfect-oracle emits
/// retroactive onOraclePre entries whose `at` lies before the event that
/// produced them.
/// The engine drains the buffers once per window, k-way merged by
/// (execWhen, execStamp, buffer position), which is exactly the order a
/// single queue would have fired the producing events.
class MB_CROSS_CHANNEL BufferedCommandLog final : public mc::CommandLog {
 public:
  /// `eq` is the channel queue whose executions feed this buffer; the key of
  /// every entry is read from it at append time.
  explicit BufferedCommandLog(const EventQueue& eq) : eq_(eq) {}

  void onCommand(mc::DramCommand cmd, const core::DramAddress& da, Tick at,
                 Tick dataStart, Tick dataEnd) override;
  void onRefresh(int channel, int rank, int bank, Tick at) override;
  void onOraclePre(const core::DramAddress& da, Tick at) override;

 private:
  friend class ShardedEngine;

  struct Entry {
    Tick execWhen = 0;         // eq.now() of the producing execution
    EventStamp execStamp{};    // eq.currentStamp() of the producing execution
    std::uint8_t which = 0;    // 0 onCommand, 1 onRefresh, 2 onOraclePre
    mc::DramCommand cmd{};
    core::DramAddress da{};
    int channel = 0;
    int rank = 0;
    int bank = 0;
    Tick at = 0;
    Tick dataStart = -1;
    Tick dataEnd = -1;
  };

  Entry& append();
  void replayInto(mc::CommandLog& sink, const Entry& e) const;

  const EventQueue& eq_;
  MB_SNAP_TRANSIENT(eq_, "command recording is rejected on checkpointing runs (MB_CHECK in runSimulation); buffers never reach a snapshot");
  std::vector<Entry> entries_;
};

struct ShardEngineOptions {
  /// Conservative window span; must be positive and no larger than the
  /// minimum channel → CPU latency (tCMD for this system).
  Tick lookahead = 1;
  /// Global event budget; exceeding it is an MB_CHECK failure (runaway
  /// configuration guard, mirrors the legacy run loop's cap).
  std::uint64_t maxEvents = 2000000000ull;
};

/// The conservative-window scheduler and the mailbox between shards (one
/// shard = one queue). Everything runs on the calling thread; postEnqueue is
/// called from the CPU phase and from restore, postCompletion from channel
/// events and from the controllers' restore-time reschedule.
class MB_CROSS_CHANNEL ShardedEngine final : public ShardMailbox {
 public:
  /// Admission delivery: build the MemRequest for a buffered CPU → channel
  /// message and enqueue it on the channel's controller. Runs on the channel
  /// queue at the message's due tick.
  using DeliverEnqueueFn =
      std::function<void(ChannelId ch, Tick due, std::uint64_t lineAddr,
                         CoreId core, bool isWrite)>;

  ShardedEngine(EventQueue& cpuQueue, std::vector<EventQueue*> channelQueues,
                const ShardEngineOptions& opts);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// `numCores` bounds the core a buffered admission may name: a restored
  /// message outside [0, numCores) fails load().
  void setDeliverEnqueue(DeliverEnqueueFn fn, int numCores) {
    deliverEnqueue_ = std::move(fn);
    numCores_ = numCores;
  }

  /// Enable command capture: `buffers[ch]` is the sink controller `ch` feeds;
  /// drained into `sink` once per window in deterministic merge order.
  void setCommandMerge(std::vector<BufferedCommandLog*> buffers,
                       mc::CommandLog* sink);

  // ShardMailbox
  void postCompletion(ChannelId fromChannel, Tick due, const EventStamp& st,
                      InlineFunction<void(Tick)> cb) override;
  void postEnqueue(ChannelId toChannel, Tick due, const EventStamp& st,
                   std::uint64_t lineAddr, CoreId core, bool isWrite) override;

  /// Drive the simulation to completion. `stopFn` is sampled after every
  /// CPU-phase event; when it flips, the window is truncated at the stop
  /// event's ordering key, so exactly the events a single queue would have
  /// fired before the stop have fired — no more, no less. `checkpointAt` < 0
  /// disables the checkpoint cut; otherwise `onCheckpoint` runs once, at the
  /// first window boundary t0 >= checkpointAt (all queues quiescent, every
  /// in-flight message still in the mailbox and serialized by save()).
  void run(Tick checkpointAt, const std::function<void()>& onCheckpoint,
           const std::function<bool()>& stopFn);

  /// Events fired across all queues. Note: one logical completion is an
  /// event on the channel queue (slot release) plus one on the CPU queue
  /// (data delivery), so this exceeds the legacy single-queue count; it
  /// feeds mbperf only, never the canonical report.
  std::uint64_t processedCount() const;

  /// Latest queue clock — the capture time a snapshot records (equals the
  /// tick of the last fired event).
  Tick maxNow() const;

  /// Checkpoint restore: jump every queue to the snapshot's capture time
  /// (before ckpt::EventRestorer::replay re-arms pending events).
  void restoreClocks(Tick now);

  /// ENG snapshot section: per-queue stamp counters and the buffered
  /// CPU → channel messages. Channel → CPU messages are NOT serialized —
  /// each corresponds to a live completion slot in some controller, whose
  /// reschedule() re-posts it through the mailbox.
  template <class Ar> void io(Ar& ar);
  MB_SNAP_ENTRY_POINTS(, );

 private:
  struct ChannelMsg {  // CPU -> channel, plain data (serializable)
    Tick due;
    EventStamp stamp;
    std::uint64_t lineAddr;
    CoreId core;
    bool write;
  };
  struct CpuMsg {  // channel -> CPU
    Tick due;
    EventStamp stamp;
    mc::CompletionFn cb;
  };

  /// Ordering key of the CPU event that flipped stopFn: channel events
  /// ordered after it are left unfired.
  struct StopKey {
    Tick when;
    EventStamp stamp;
  };

  Tick minNextTime() const;
  void deliverToCpu(Tick t1);
  void deliverToChannels(Tick t1);
  void runChannelWindow(EventQueue& q, Tick t1, const std::optional<StopKey>& stop);
  void drainCommands();

  // cpuQ_/chQs_ are wiring references, but NOT transient: io() walks the
  // stamp counters through these handles, so they participate in the ENG
  // section like any serialized member.
  EventQueue& cpuQ_;
  std::vector<EventQueue*> chQs_;
  ShardEngineOptions opts_;
  MB_SNAP_TRANSIENT(opts_, "run-shaping knobs, rebuilt from the configuration on every construction");
  DeliverEnqueueFn deliverEnqueue_;
  MB_SNAP_TRANSIENT(deliverEnqueue_, "wiring callback, rebuilt by the system on every construction");
  int numCores_ = 0;
  std::vector<BufferedCommandLog*> cmdBufs_;
  MB_SNAP_TRANSIENT(cmdBufs_, "command recording is rejected on checkpointing runs (MB_CHECK in runSimulation)");
  mc::CommandLog* cmdSink_ = nullptr;
  MB_SNAP_TRANSIENT(cmdSink_, "command recording is rejected on checkpointing runs");

  std::vector<std::vector<ChannelMsg>> toChannel_;  // [ch]
  /// Channel → CPU messages from every channel in one buffer: the CPU
  /// queue orders deliveries by their (due, stamp) key, so the order they
  /// are buffered in is not observable.
  std::vector<CpuMsg> toCpu_;
  MB_SNAP_TRANSIENT(toCpu_, "every buffered completion mirrors a live MC slot; the MC section re-posts it on replay");
  /// Cached minimum due over all toChannel_ buffers and over toCpu_, so
  /// minNextTime() does not rescan every buffered message each window.
  /// kTickNever = empty.
  Tick minToChannelDue_ = kTickNever;
  MB_SNAP_TRANSIENT(minToChannelDue_, "cache over toChannel_; rebuilt by load() from the deserialized buffers");
  Tick minToCpuDue_ = kTickNever;
  MB_SNAP_TRANSIENT(minToCpuDue_, "cache over toCpu_, which is itself transient (re-posted from MC slots on replay)");
  /// Completion callbacks being delivered in the current window. Parked here
  /// so the CPU-queue delivery closure captures only {this, index, due} and
  /// stays within InlineFunction's inline buffer (a full CompletionFn nested
  /// inside a closure would spill to the heap on every completion). Always
  /// empty at window boundaries: a delivered message fires within its window.
  std::vector<mc::CompletionFn> cpuArena_;
  MB_SNAP_TRANSIENT(cpuArena_, "empty at every window boundary (delivered messages fire within their window), and snapshots only cut at boundaries");

  std::uint64_t events_ = 0;  // fired by run(), all queues
  MB_SNAP_TRANSIENT(events_, "runaway guard only; per-queue processed counts feed mbperf and restart at zero");
  /// End of the window currently executing; postCompletion checks its due
  /// against this (a completion inside the lookahead horizon would mean the
  /// lookahead is larger than the real channel → CPU latency). 0 before the
  /// first window, so restore-time posts (due >= 0) always pass.
  Tick windowEnd_ = 0;
  MB_SNAP_TRANSIENT(windowEnd_, "lookahead guard horizon; 0 between runs so restore-time posts always pass");
};

}  // namespace mb::sim
