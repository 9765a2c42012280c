#include "mc/scheduler.hpp"

#include <algorithm>
#include <map>

#include "common/check.hpp"

namespace mb::mc {

std::string schedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Fcfs: return "FCFS";
    case SchedulerKind::FrFcfs: return "FR-FCFS";
    case SchedulerKind::ParBs: return "PAR-BS";
  }
  return "unknown";
}

std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::Fcfs: return std::make_unique<FcfsScheduler>();
    case SchedulerKind::FrFcfs: return std::make_unique<FrFcfsScheduler>();
    case SchedulerKind::ParBs: return std::make_unique<ParBsScheduler>();
  }
  MB_CHECK(false && "unknown scheduler kind");
  return nullptr;
}

bool prefers(SchedulerKind kind, const PriorityFields& a, const PriorityFields& b) {
  switch (kind) {
    case SchedulerKind::Fcfs: return a.arrival < b.arrival;
    case SchedulerKind::FrFcfs:
      return a.rowHit != b.rowHit ? a.rowHit : a.arrival < b.arrival;
    case SchedulerKind::ParBs:
      if (a.marked != b.marked) return a.marked;
      if (a.rowHit != b.rowHit) return a.rowHit;
      // Ranks are meaningful (and compared) only when both are marked.
      // Lower rank is better.
      if (a.marked && a.threadRank != b.threadRank) return a.threadRank < b.threadRank;
      return a.arrival < b.arrival;
  }
  return false;
}

ParBsScheduler::ParBsScheduler(int markingCap) : markingCap_(markingCap) {
  // A thread's rank is at most the cap, and must fit its key field.
  MB_CHECK(markingCap > 0 && markingCap < (1 << kKeyThreadRankBits));
}

void ParBsScheduler::onEnqueue(const MemRequest& req) {
  MB_CHECK(req.thread >= 0 && req.thread < kMaxThreads);
  queueView_.push_back(QueueEntry{req.id, req.thread, req.arrival});
}

void ParBsScheduler::onDequeue(int queueIndex, [[maybe_unused]] std::uint64_t requestId) {
  const auto at = queueView_.begin() + queueIndex;
  MB_DCHECK(at->id == requestId);
  if (at->marked) {
    --markedPerThread_[static_cast<std::size_t>(at->thread)];
    --markedCount_;
  }
  queueView_.erase(at);
}

bool ParBsScheduler::isMarked(std::uint64_t requestId) const {
  for (const auto& e : queueView_)
    if (e.id == requestId) return e.marked;
  return false;
}

bool ParBsScheduler::tracksReadWindow(const std::vector<std::uint64_t>& readIds) const {
  if (readIds.size() != queueView_.size()) return false;
  for (std::size_t i = 0; i < readIds.size(); ++i)
    if (readIds[i] != queueView_[i].id) return false;
  return true;
}

void ParBsScheduler::formBatch() {
  MB_DCHECK(markedCount_ == 0);
  std::fill(markedPerThread_.begin(), markedPerThread_.end(), 0);
  // Oldest-first marking with a per-thread cap.
  std::vector<QueueEntry*> sorted;
  sorted.reserve(queueView_.size());
  for (auto& e : queueView_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const QueueEntry* a, const QueueEntry* b) {
    if (a->arrival != b->arrival) return a->arrival < b->arrival;
    return a->id < b->id;
  });
  for (QueueEntry* e : sorted) {
    const auto t = static_cast<std::size_t>(e->thread);
    if (t >= markedPerThread_.size()) markedPerThread_.resize(t + 1, 0);
    if (markedPerThread_[t] >= markingCap_) continue;
    ++markedPerThread_[t];
    ++markedCount_;
    e->marked = true;
  }
}

bool ParBsScheduler::formBatchIfDue() {
  if (!wouldFormBatch()) return false;
  formBatch();
  return true;
}

// ---- Serializable protocol -----------------------------------------------
//
// queueView_ order is controller-enqueue order and must survive verbatim
// (formBatch walks it to mark the oldest per thread). The batch marks travel
// as two key-sorted lists, (request id -> thread) and (thread -> marked
// count): saving builds them from the marked entries, loading resolves them
// back into the entries' bits and rejects lists the view contradicts.

template <class Ar>
void ParBsScheduler::io(Ar& ar) {
  auto countsByThread = [this] {
    std::map<ThreadId, int> counts;
    for (std::size_t t = 0; t < markedPerThread_.size(); ++t)
      if (markedPerThread_[t] > 0)
        counts.emplace(static_cast<ThreadId>(t), markedPerThread_[t]);
    return counts;
  };
  std::map<std::uint64_t, ThreadId> marked;
  for (const auto& e : queueView_)
    if (e.marked) marked.emplace(e.id, e.thread);
  std::map<ThreadId, int> perThread = countsByThread();
  ar.mapSorted(marked, 12, [&](ThreadId& t) { ar.i32(t); });
  ar.mapSorted(perThread, 12, [&](int& n) { ar.i32(n); });
  std::uint64_t n = queueView_.size();
  ar.u64Count(n, 20);
  if constexpr (Ar::kLoading) queueView_.assign(n, QueueEntry{});
  for (auto& qe : queueView_) {
    ar.u64(qe.id);
    ar.i32Index(qe.thread, kMaxThreads);
    ar.i64(qe.arrival);
  }
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    ThreadId maxThread = -1;
    for (const auto& qe : queueView_) maxThread = std::max(maxThread, qe.thread);
    markedPerThread_.assign(static_cast<std::size_t>(maxThread + 1), 0);
    markedCount_ = 0;
    for (const auto& [id, thread] : marked) {
      auto e = std::find_if(queueView_.begin(), queueView_.end(),
                            [id](const QueueEntry& q) { return q.id == id; });
      if (e == queueView_.end() || e->thread != thread) return ar.fail();
      e->marked = true;
      ++markedPerThread_[static_cast<std::size_t>(thread)];
      ++markedCount_;
    }
    if (countsByThread() != perThread) return ar.fail();
  }
}
MB_SNAP_IO_INSTANTIATE(ParBsScheduler);

}  // namespace mb::mc
