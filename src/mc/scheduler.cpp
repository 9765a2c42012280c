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

namespace {

// One forward scan computing the best candidate under `better` for a single
// earliestIssue filter. `better(c, b)` must be a strict "c beats the current
// best b" predicate; ties keep the earlier index, exactly as the historical
// per-scheduler loops did.
template <typename Better>
int scanBest(const std::vector<Candidate>& cands, Tick now, Better better) {
  int best = -1;
  for (size_t i = 0; i < cands.size(); ++i) {
    const auto& c = cands[i];
    if (c.earliestIssue > now) continue;
    if (best < 0 || better(c, cands[static_cast<size_t>(best)]))
      best = static_cast<int>(i);
  }
  return best;
}

// Fused variant of the controller's double pick: one scan maintaining both
// the issuable best (earliestIssue <= now) and the overall best under the
// gate horizon. Since both running bests use the same predicate and see the
// candidates in the same order, the result is index-identical to two
// independent scanBest calls.
template <typename Better>
Scheduler::PickPair scanPair(const std::vector<Candidate>& cands, Tick now,
                             Better better) {
  Scheduler::PickPair p;
  constexpr Tick kHorizon = kTickNever / 2;
  const Candidate* bestOverall = nullptr;
  const Candidate* bestIssuable = nullptr;
  for (size_t i = 0; i < cands.size(); ++i) {
    const auto& c = cands[i];
    if (c.earliestIssue > kHorizon) continue;
    if (bestOverall == nullptr || better(c, *bestOverall)) {
      bestOverall = &c;
      p.overall = static_cast<int>(i);
    }
    if (c.earliestIssue > now) continue;
    if (bestIssuable == nullptr || better(c, *bestIssuable)) {
      bestIssuable = &c;
      p.issuable = static_cast<int>(i);
    }
  }
  return p;
}

bool fcfsBetter(const Candidate& c, const Candidate& b) {
  return c.arrival < b.arrival;
}

bool frFcfsBetter(const Candidate& c, const Candidate& b) {
  return c.rowHit != b.rowHit ? c.rowHit : c.arrival < b.arrival;
}

}  // namespace

int FcfsScheduler::pick(std::vector<Candidate>& cands, Tick now) {
  return scanBest(cands, now, fcfsBetter);
}

Scheduler::PickPair FcfsScheduler::pickPair(std::vector<Candidate>& cands, Tick now) {
  return scanPair(cands, now, fcfsBetter);
}

int FrFcfsScheduler::pick(std::vector<Candidate>& cands, Tick now) {
  return scanBest(cands, now, frFcfsBetter);
}

Scheduler::PickPair FrFcfsScheduler::pickPair(std::vector<Candidate>& cands, Tick now) {
  return scanPair(cands, now, frFcfsBetter);
}

void ParBsScheduler::onEnqueue(const MemRequest& req) {
  MB_CHECK(req.thread >= 0 && req.thread < kMaxThreads);
  queueView_.push_back(QueueEntry{req.id, req.thread, req.arrival});
}

void ParBsScheduler::onDequeue(const MemRequest& req) {
  for (size_t i = 0; i < queueView_.size(); ++i) {
    if (queueView_[i].id != req.id) continue;
    if (queueView_[i].marked) {
      --markedPerThread_[static_cast<std::size_t>(queueView_[i].thread)];
      --markedCount_;
    }
    queueView_.erase(queueView_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
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

void ParBsScheduler::prepareBatch(std::vector<Candidate>& cands) {
  formBatchIfDue();
  for (auto& c : cands) {
    MB_DCHECK(c.queueIndex < 0 ||
              queueView_[static_cast<std::size_t>(c.queueIndex)].id == c.id);
    c.marked = c.queueIndex >= 0 && requestMarked(c.queueIndex);
    // Thread rank: shortest job (fewest marked requests) first. Stamped
    // here once per candidate; the selection predicate below only ever
    // compares ranks between two marked candidates, and the counts are
    // constant between here and the scan.
    c.rank = c.marked ? markedPerThread_[static_cast<std::size_t>(c.thread)] : 0;
  }
}

namespace {
bool parBsBetter(const Candidate& c, const Candidate& b) {
  if (c.marked != b.marked) return c.marked;
  if (c.rowHit != b.rowHit) return c.rowHit;
  // Both marked or both unmarked here; ranks are meaningful (and compared)
  // only in the both-marked case. Lower rank is better.
  if (c.marked && c.rank != b.rank) return c.rank < b.rank;
  return c.arrival < b.arrival;
}
}  // namespace

int ParBsScheduler::pick(std::vector<Candidate>& cands, Tick now) {
  prepareBatch(cands);
  return scanBest(cands, now, parBsBetter);
}

Scheduler::PickPair ParBsScheduler::pickPair(std::vector<Candidate>& cands, Tick now) {
  prepareBatch(cands);
  return scanPair(cands, now, parBsBetter);
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
