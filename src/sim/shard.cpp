#include "sim/shard.hpp"

#include <optional>
#include <utility>

#include "ckpt/restore.hpp"

namespace mb::sim {

// ---------------------------------------------------------------------------
// BufferedCommandLog

BufferedCommandLog::Entry& BufferedCommandLog::append() {
  entries_.emplace_back();
  Entry& e = entries_.back();
  e.execWhen = eq_.now();
  e.execStamp = eq_.currentStamp();
  return e;
}

void BufferedCommandLog::onCommand(mc::DramCommand cmd,
                                   const core::DramAddress& da, Tick at,
                                   Tick dataStart, Tick dataEnd) {
  Entry& e = append();
  e.which = 0;
  e.cmd = cmd;
  e.da = da;
  e.at = at;
  e.dataStart = dataStart;
  e.dataEnd = dataEnd;
}

void BufferedCommandLog::onRefresh(int channel, int rank, int bank, Tick at) {
  Entry& e = append();
  e.which = 1;
  e.channel = channel;
  e.rank = rank;
  e.bank = bank;
  e.at = at;
}

void BufferedCommandLog::onOraclePre(const core::DramAddress& da, Tick at) {
  Entry& e = append();
  e.which = 2;
  e.da = da;
  e.at = at;
}

void BufferedCommandLog::replayInto(mc::CommandLog& sink, const Entry& e) const {
  switch (e.which) {
    case 0:
      sink.onCommand(e.cmd, e.da, e.at, e.dataStart, e.dataEnd);
      break;
    case 1:
      sink.onRefresh(e.channel, e.rank, e.bank, e.at);
      break;
    default:
      sink.onOraclePre(e.da, e.at);
      break;
  }
}

// ---------------------------------------------------------------------------
// ShardedEngine

ShardedEngine::ShardedEngine(EventQueue& cpuQueue,
                             std::vector<EventQueue*> channelQueues,
                             const ShardEngineOptions& opts)
    : cpuQ_(cpuQueue), chQs_(std::move(channelQueues)), opts_(opts) {
  MB_CHECK_MSG(opts_.lookahead > 0, "lookahead=%lld",
               static_cast<long long>(opts_.lookahead));
  MB_CHECK(!chQs_.empty());
  toChannel_.resize(chQs_.size());
}

void ShardedEngine::setCommandMerge(std::vector<BufferedCommandLog*> buffers,
                                    mc::CommandLog* sink) {
  MB_CHECK(buffers.size() == chQs_.size());
  MB_CHECK(sink != nullptr);
  cmdBufs_ = std::move(buffers);
  cmdSink_ = sink;
}

void ShardedEngine::postCompletion(ChannelId fromChannel, Tick due,
                                   const EventStamp& st,
                                   InlineFunction<void(Tick)> cb) {
  MB_CHECK(fromChannel >= 0 &&
           static_cast<std::size_t>(fromChannel) < chQs_.size());
  // A completion due before the current window's end would mean the channel
  // can reach the CPU faster than the configured lookahead — the conservative
  // window would have executed CPU events it shouldn't have.
  MB_CHECK_MSG(due >= windowEnd_,
               "completion due=%lldps inside the lookahead horizon (window end "
               "%lldps) — lookahead exceeds the channel->CPU latency",
               static_cast<long long>(due), static_cast<long long>(windowEnd_));
  if (due < minToCpuDue_) minToCpuDue_ = due;
  toCpu_.push_back(CpuMsg{due, st, std::move(cb)});
}

void ShardedEngine::postEnqueue(ChannelId toChannel, Tick due,
                                const EventStamp& st, std::uint64_t lineAddr,
                                CoreId core, bool isWrite) {
  MB_CHECK(toChannel >= 0 && static_cast<std::size_t>(toChannel) < chQs_.size());
  if (due < minToChannelDue_) minToChannelDue_ = due;
  toChannel_[static_cast<std::size_t>(toChannel)].push_back(
      ChannelMsg{due, st, lineAddr, core, isWrite});
}

Tick ShardedEngine::minNextTime() const {
  Tick t = cpuQ_.nextEventTime();
  for (const EventQueue* q : chQs_) {
    const Tick n = q->nextEventTime();
    if (n < t) t = n;
  }
  if (minToChannelDue_ < t) t = minToChannelDue_;
  if (minToCpuDue_ < t) t = minToCpuDue_;
  return t;
}

void ShardedEngine::deliverToCpu(Tick t1) {
  cpuArena_.clear();
  if (minToCpuDue_ >= t1) return;  // nothing deliverable this window
  Tick keptMin = kTickNever;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < toCpu_.size(); ++i) {
    CpuMsg& m = toCpu_[i];
    if (m.due < t1) {
      const std::uint32_t idx = static_cast<std::uint32_t>(cpuArena_.size());
      const Tick due = m.due;
      cpuArena_.push_back(std::move(m.cb));
      cpuQ_.scheduleStamped(due, m.stamp, [this, idx, due] { cpuArena_[idx](due); });
    } else {
      if (m.due < keptMin) keptMin = m.due;
      if (kept != i) toCpu_[kept] = std::move(m);
      ++kept;
    }
  }
  toCpu_.resize(kept);
  minToCpuDue_ = keptMin;
}

void ShardedEngine::deliverToChannels(Tick t1) {
  if (minToChannelDue_ >= t1) return;  // nothing deliverable this window
  Tick keptMin = kTickNever;
  for (std::size_t ch = 0; ch < toChannel_.size(); ++ch) {
    auto& buf = toChannel_[ch];
    std::size_t kept = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i].due < t1) {
        // Capture scalars, not the message struct: the closure must fit the
        // queue's inline callback buffer (admissions are the hot path).
        const Tick due = buf[i].due;
        const std::uint64_t lineAddr = buf[i].lineAddr;
        const CoreId core = buf[i].core;
        const bool write = buf[i].write;
        chQs_[ch]->scheduleStamped(
            due, buf[i].stamp, [this, ch, due, lineAddr, core, write] {
              deliverEnqueue_(static_cast<ChannelId>(ch), due, lineAddr, core,
                              write);
            });
      } else {
        if (buf[i].due < keptMin) keptMin = buf[i].due;
        if (kept != i) buf[kept] = buf[i];
        ++kept;
      }
    }
    buf.resize(kept);
  }
  minToChannelDue_ = keptMin;
}

void ShardedEngine::runChannelWindow(EventQueue& q, Tick t1,
                                     const std::optional<StopKey>& stop) {
  for (;;) {
    const Tick next = q.nextEventTime();
    if (next >= t1) break;  // kTickNever when empty
    if (stop &&
        !EventQueue::keyBefore(next, *q.peekStamp(), stop->when, stop->stamp))
      break;
    q.step();
    ++events_;
    MB_CHECK_MSG(events_ < opts_.maxEvents,
                 "event cap hit at t=%lldps — runaway configuration?",
                 static_cast<long long>(q.now()));
  }
}

void ShardedEngine::drainCommands() {
  if (cmdSink_ == nullptr) return;
  bool any = false;
  for (const BufferedCommandLog* b : cmdBufs_)
    if (!b->entries_.empty()) any = true;
  if (!any) return;
  // K-way merge by the producing execution's key; entries within one buffer
  // are already key-ordered (a channel fires its events in key order), ties
  // inside one execution keep buffer order, and cross-buffer keys never tie
  // (stamps from different channels differ).
  std::vector<std::size_t> cur(cmdBufs_.size(), 0);
  for (;;) {
    int best = -1;
    for (std::size_t i = 0; i < cmdBufs_.size(); ++i) {
      if (cur[i] >= cmdBufs_[i]->entries_.size()) continue;
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const auto& a = cmdBufs_[i]->entries_[cur[i]];
      const auto& b =
          cmdBufs_[static_cast<std::size_t>(best)]->entries_[cur[static_cast<std::size_t>(best)]];
      if (EventQueue::keyBefore(a.execWhen, a.execStamp, b.execWhen, b.execStamp))
        best = static_cast<int>(i);
    }
    if (best < 0) break;
    auto& buf = *cmdBufs_[static_cast<std::size_t>(best)];
    buf.replayInto(*cmdSink_, buf.entries_[cur[static_cast<std::size_t>(best)]]);
    ++cur[static_cast<std::size_t>(best)];
  }
  for (BufferedCommandLog* b : cmdBufs_) b->entries_.clear();
}

void ShardedEngine::run(Tick checkpointAt,
                        const std::function<void()>& onCheckpoint,
                        const std::function<bool()>& stopFn) {
  bool ckptPending = checkpointAt >= 0;
  for (;;) {
    if (stopFn()) break;  // restore-into-finished, or stop in last window
    const Tick t0 = minNextTime();
    if (t0 == kTickNever) break;  // drained (caller decides if that is legal)
    if (ckptPending && t0 >= checkpointAt) {
      onCheckpoint();
      ckptPending = false;
    }
    Tick t1 = t0 + opts_.lookahead;
    if (ckptPending && checkpointAt < t1) t1 = checkpointAt;
    deliverToCpu(t1);

    // Phase A: the CPU hierarchy runs to completion first, so zero-latency
    // CPU -> channel admissions still land inside this window.
    std::optional<StopKey> stop;
    while (cpuQ_.nextEventTime() < t1) {
      const Tick when = cpuQ_.nextEventTime();
      const EventStamp st = *cpuQ_.peekStamp();
      cpuQ_.step();
      ++events_;
      MB_CHECK_MSG(events_ < opts_.maxEvents,
                   "event cap hit at t=%lldps — runaway configuration?",
                   static_cast<long long>(when));
      if (stopFn()) {
        // Truncate the window at this event's key: channel events ordered
        // after it would not have fired under a single queue either.
        stop = StopKey{when, st};
        break;
      }
    }

    // Phase B: every channel, in index order. windowEnd_ arms the lookahead
    // guard in postCompletion before any channel event can run.
    windowEnd_ = t1;
    deliverToChannels(t1);
    for (EventQueue* q : chQs_) runChannelWindow(*q, t1, stop);
    drainCommands();
    if (stop) break;
  }
}

std::uint64_t ShardedEngine::processedCount() const {
  std::uint64_t n = cpuQ_.processedCount();
  for (const EventQueue* q : chQs_) n += q->processedCount();
  return n;
}

Tick ShardedEngine::maxNow() const {
  Tick t = cpuQ_.now();
  for (const EventQueue* q : chQs_)
    if (q->now() > t) t = q->now();
  return t;
}

void ShardedEngine::restoreClocks(Tick now) {
  cpuQ_.restoreClock(now);
  for (EventQueue* q : chQs_) q->restoreClock(now);
}

template <class Ar>
void ShardedEngine::io(Ar& ar) {
  std::uint32_t channels = static_cast<std::uint32_t>(chQs_.size());
  ar.u32(channels);
  if (channels != chQs_.size()) return ar.fail();
  std::uint64_t counter = cpuQ_.nextCounter();
  ar.u64(counter);
  if constexpr (Ar::kLoading) cpuQ_.restoreNextCounter(counter);
  for (EventQueue* q : chQs_) {
    counter = q->nextCounter();
    ar.u64(counter);
    if constexpr (Ar::kLoading) q->restoreNextCounter(counter);
  }
  if constexpr (Ar::kLoading) minToChannelDue_ = kTickNever;
  for (auto& buf : toChannel_) {
    std::uint64_t n = buf.size();
    ar.u64Count(n, 8 + 40 + 8 + 4 + 1);
    if constexpr (Ar::kLoading) buf.assign(n, ChannelMsg{});
    for (ChannelMsg& m : buf) {
      ar.i64(m.due);
      ckpt::ioStamp(ar, m.stamp);
      ar.u64(m.lineAddr);
      ar.i32Index(m.core, numCores_);
      ar.b(m.write);
      if constexpr (Ar::kLoading)
        if (m.due < minToChannelDue_) minToChannelDue_ = m.due;
    }
  }
  // toCpu_ is intentionally absent: every buffered completion corresponds to
  // a live slot in some controller's MC section, which re-posts it on replay.
}
MB_SNAP_IO_INSTANTIATE(ShardedEngine);

}  // namespace mb::sim
