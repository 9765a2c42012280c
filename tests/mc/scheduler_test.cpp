#include "mc/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "snapshot_forge.hpp"

namespace mb::mc {
namespace {

MemRequest req(std::uint64_t id, ThreadId thread, Tick arrival) {
  MemRequest r;
  r.id = id;
  r.thread = thread;
  r.arrival = arrival;
  return r;
}

PriorityFields fields(std::uint64_t id, Tick arrival, bool rowHit, bool marked = false,
                      int threadRank = 0) {
  PriorityFields f;
  f.id = id;
  f.arrival = arrival;
  f.rowHit = rowHit;
  f.marked = marked;
  f.threadRank = marked ? threadRank : 0;
  return f;
}

/// Index of the request a scheduler serves first: the lowest key.
int firstByKey(SchedulerKind kind, const std::vector<PriorityFields>& q) {
  int best = -1;
  for (std::size_t i = 0; i < q.size(); ++i)
    if (best < 0 || priorityKey(kind, q[i]) < priorityKey(kind, q[static_cast<std::size_t>(best)]))
      best = static_cast<int>(i);
  return best;
}

/// The same choice as a scan in queue order under the pairwise order.
int firstByScan(SchedulerKind kind, const std::vector<PriorityFields>& q) {
  int best = -1;
  for (std::size_t i = 0; i < q.size(); ++i)
    if (best < 0 || prefers(kind, q[i], q[static_cast<std::size_t>(best)]))
      best = static_cast<int>(i);
  return best;
}

/// A request's fields as the PAR-BS scheduler currently stamps them.
PriorityFields stamped(const ParBsScheduler& s, int queueIndex, std::uint64_t id,
                       ThreadId thread, Tick arrival, bool rowHit) {
  const bool marked = s.requestMarked(queueIndex);
  return fields(id, arrival, rowHit, marked, marked ? s.threadRank(thread) : 0);
}

TEST(SchedulerFactory, CreatesAllKinds) {
  for (auto kind :
       {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    auto s = makeScheduler(kind);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), kind);
  }
}

TEST(Fcfs, PicksOldest) {
  const std::vector<PriorityFields> q{fields(1, 50, true), fields(2, 75, false),
                                      fields(3, 100, true)};
  EXPECT_EQ(firstByKey(SchedulerKind::Fcfs, q), 0);
  EXPECT_EQ(firstByScan(SchedulerKind::Fcfs, q), 0);
}

TEST(FrFcfs, PrefersRowHitOverAge) {
  const std::vector<PriorityFields> q{fields(1, 10, false), fields(2, 90, true)};
  EXPECT_EQ(firstByKey(SchedulerKind::FrFcfs, q), 1);
  EXPECT_EQ(firstByScan(SchedulerKind::FrFcfs, q), 1);
}

TEST(FrFcfs, AgeBreaksTiesAmongHits) {
  const std::vector<PriorityFields> q{fields(1, 10, true), fields(2, 90, true)};
  EXPECT_EQ(firstByKey(SchedulerKind::FrFcfs, q), 0);
  EXPECT_EQ(firstByScan(SchedulerKind::FrFcfs, q), 0);
}

TEST(ParBs, MarkedBeatsUnmarkedRowHit) {
  ParBsScheduler s(/*markingCap=*/1);
  // Queue: thread 0 has an old request (gets marked), thread 1's second
  // request arrives after batch formation and is unmarked.
  s.onEnqueue(req(1, 0, 10));
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(1));

  s.onEnqueue(req(2, 1, 20));
  EXPECT_FALSE(s.formBatchIfDue());
  const std::vector<PriorityFields> q{
      stamped(s, 0, 1, 0, 10, false),  // marked conflict
      stamped(s, 1, 2, 1, 20, true),   // unmarked hit
  };
  EXPECT_EQ(firstByKey(SchedulerKind::ParBs, q), 0);
  EXPECT_EQ(firstByScan(SchedulerKind::ParBs, q), 0);
}

TEST(ParBs, NewBatchFormsWhenMarkedDrains) {
  ParBsScheduler s(2);
  s.onEnqueue(req(1, 0, 10));
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(1));
  s.onDequeue(0, 1);
  EXPECT_FALSE(s.isMarked(1));

  s.onEnqueue(req(2, 1, 20));
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(2));
}

// The controller's wake-only passes form a due batch without a pick.
TEST(ParBs, FormBatchIfDueFormsOnlyWhenTheLastBatchDrained) {
  ParBsScheduler s(2);
  EXPECT_FALSE(s.formBatchIfDue());  // empty queue: nothing to mark
  const auto r1 = req(1, 0, 10);
  s.onEnqueue(r1);
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(1));
  s.onEnqueue(req(2, 0, 20));
  EXPECT_FALSE(s.formBatchIfDue());  // the batch still holds request 1
  EXPECT_FALSE(s.isMarked(2));
  s.onDequeue(0, 1);
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(2));

  FrFcfsScheduler plain;
  plain.onEnqueue(r1);
  EXPECT_FALSE(plain.formBatchIfDue());
}

// A dequeue names the request by its window position; the rank of its
// thread drops with it.
TEST(ParBs, DequeueByPositionKeepsTheOtherEntries) {
  ParBsScheduler s(5);
  for (std::uint64_t i = 1; i <= 3; ++i) s.onEnqueue(req(i, 0, static_cast<Tick>(i)));
  s.onEnqueue(req(4, 1, 4));
  ASSERT_TRUE(s.formBatchIfDue());
  EXPECT_EQ(s.threadRank(0), 3);
  EXPECT_EQ(s.threadRank(1), 1);
  s.onDequeue(1, 2);
  EXPECT_EQ(s.threadRank(0), 2);
  EXPECT_TRUE(s.tracksReadWindow({1, 3, 4}));
  EXPECT_TRUE(s.isMarked(1));
  EXPECT_TRUE(s.isMarked(3));
  EXPECT_FALSE(s.isMarked(2));
}

TEST(ParBs, MarkingCapLimitsPerThread) {
  ParBsScheduler s(2);
  for (std::uint64_t i = 1; i <= 5; ++i) s.onEnqueue(req(i, 0, static_cast<Tick>(i)));
  ASSERT_TRUE(s.formBatchIfDue());
  int marked = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) marked += s.isMarked(i) ? 1 : 0;
  EXPECT_EQ(marked, 2);
  EXPECT_TRUE(s.isMarked(1));  // oldest first
  EXPECT_TRUE(s.isMarked(2));
  EXPECT_EQ(s.threadRank(0), 2);
}

TEST(ParBs, ShortestJobThreadRankedFirst) {
  ParBsScheduler s(5);
  // Thread 0: three requests; thread 1: one request. All arrive before the
  // batch forms; thread 1 (fewer marked) should be served first among
  // equally-old, equally-row-state requests.
  for (std::uint64_t i = 1; i <= 3; ++i) s.onEnqueue(req(i, 0, 10));
  s.onEnqueue(req(4, 1, 10));
  ASSERT_TRUE(s.formBatchIfDue());
  std::vector<PriorityFields> q;
  for (int i = 0; i < 3; ++i)
    q.push_back(stamped(s, i, static_cast<std::uint64_t>(i) + 1, 0, 10, false));
  q.push_back(stamped(s, 3, 4, 1, 10, false));
  EXPECT_EQ(firstByKey(SchedulerKind::ParBs, q), 3);
  EXPECT_EQ(firstByScan(SchedulerKind::ParBs, q), 3);
}

TEST(ParBs, RowHitStillWinsWithinBatch) {
  ParBsScheduler s(5);
  s.onEnqueue(req(1, 0, 10));
  s.onEnqueue(req(2, 0, 20));
  ASSERT_TRUE(s.formBatchIfDue());
  const std::vector<PriorityFields> q{stamped(s, 0, 1, 0, 10, false),
                                      stamped(s, 1, 2, 0, 20, true)};
  EXPECT_EQ(firstByKey(SchedulerKind::ParBs, q), 1);
  EXPECT_EQ(firstByScan(SchedulerKind::ParBs, q), 1);
}

// ---- Hostile snapshots -----------------------------------------------------
//
// PAR-BS saves its batch as key-sorted (id -> thread) and (thread -> count)
// lists ahead of the queue view, and load() resolves them into the view's
// marked bits. A list the view contradicts must fail the load.

constexpr std::uint64_t kMarkedId = 0xC0FFEE1234ull;

/// One queued request of thread 3, marked by the batch it formed.
std::string savedBatchOfOne() {
  ParBsScheduler s;
  s.onEnqueue(req(kMarkedId, 3, 10));
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(kMarkedId));
  ckpt::Writer w;
  s.save(w);
  return w.str();
}

bool loadsInto(ParBsScheduler& s, const std::string& bytes) {
  ckpt::Reader r(bytes);
  s.load(r);
  return r.ok();
}

TEST(ParBs, RestoreRejectsAMarkedIdMissingFromTheQueueView) {
  const std::string saved = savedBatchOfOne();
  ParBsScheduler restored;
  ASSERT_TRUE(loadsInto(restored, saved));
  EXPECT_TRUE(restored.isMarked(kMarkedId));
  EXPECT_FALSE(restored.wouldFormBatch());

  std::string forged = saved;
  // The id's first occurrence is the marked list's key; the view keeps it.
  ASSERT_TRUE(forgeI32After(forged, kMarkedId, 0, 0x1234));
  ParBsScheduler hostile;
  EXPECT_FALSE(loadsInto(hostile, forged));
}

TEST(ParBs, RestoreRejectsAPerThreadCountTheMarksContradict) {
  const std::string saved = savedBatchOfOne();
  // After the marked entry (i64 id, i32 thread) comes the per-thread list:
  // u64 entry count, then i64 thread and i32 marked count.
  constexpr std::size_t kThreadAt = 8 + 4 + 8;
  constexpr std::size_t kCountAt = kThreadAt + 8;
  auto loadsForged = [&](std::size_t at, std::int32_t value) {
    std::string bytes = saved;
    EXPECT_TRUE(forgeI32After(bytes, kMarkedId, at, value));
    ParBsScheduler s;
    return loadsInto(s, bytes);
  };
  EXPECT_TRUE(loadsForged(kCountAt, 1));    // the honest count
  EXPECT_TRUE(loadsForged(kThreadAt, 3));   // the honest thread
  EXPECT_FALSE(loadsForged(kCountAt, 2));   // more marks than the view holds
  EXPECT_FALSE(loadsForged(kCountAt, 0));
  EXPECT_FALSE(loadsForged(kThreadAt, 4));  // a thread with no marked entry
}

TEST(SchedulerKindName, AllNamed) {
  EXPECT_EQ(schedulerKindName(SchedulerKind::Fcfs), "FCFS");
  EXPECT_EQ(schedulerKindName(SchedulerKind::FrFcfs), "FR-FCFS");
  EXPECT_EQ(schedulerKindName(SchedulerKind::ParBs), "PAR-BS");
}

// ---- Tie-break determinism -----------------------------------------------
//
// When requests are indistinguishable under a policy's whole preference
// chain, the one first in queue order must win: a strict prefers() never
// replaces the running best on a tie, and the key ends in the request id,
// which increases in queue order. This anchors bitwise reproducibility.

TEST(TieBreaks, FcfsEqualArrivalKeepsFirstScanned) {
  const std::vector<PriorityFields> q{fields(3, 50, false), fields(7, 50, true),
                                      fields(9, 50, false)};
  EXPECT_EQ(firstByKey(SchedulerKind::Fcfs, q), 0);
  EXPECT_EQ(firstByScan(SchedulerKind::Fcfs, q), 0);
}

TEST(TieBreaks, FrFcfsEqualRowHitEqualArrivalKeepsFirstScanned) {
  for (const bool hit : {true, false}) {
    const std::vector<PriorityFields> q{fields(1, 50, hit), fields(2, 50, hit)};
    EXPECT_EQ(firstByKey(SchedulerKind::FrFcfs, q), 0);
    EXPECT_EQ(firstByScan(SchedulerKind::FrFcfs, q), 0);
  }
}

TEST(TieBreaks, ParBsFullyTiedKeepsFirstScanned) {
  // Same arrival, same row state, both marked with the same rank: the full
  // chain ties and the first must win.
  const std::vector<PriorityFields> q{fields(1, 50, true, true, 2),
                                      fields(2, 50, true, true, 2)};
  EXPECT_EQ(firstByKey(SchedulerKind::ParBs, q), 0);
  EXPECT_EQ(firstByScan(SchedulerKind::ParBs, q), 0);
}

// ---- Keys against the pairwise order ---------------------------------------
//
// The controller keeps the served records of one queue sorted by key; the
// pairwise order (prefers(), first of equals in queue order) is the
// reference. On seeded queues built the way the controller's are (ids
// increase in queue order, arrivals never decrease, a few values per field
// so arrival, row-hit and rank ties are common), key order must be exactly
// the reference order, for every pair and for the sorted queue as a whole.

std::vector<PriorityFields> randomQueue(std::uint64_t seed, int n) {
  // Tiny xorshift so the test controls its own reproducibility.
  std::uint64_t x = seed * 2654435761u + 1;
  auto next = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };
  std::vector<PriorityFields> q;
  std::uint64_t id = 1 + next(1000);
  Tick arrival = static_cast<Tick>(next(100));
  for (int i = 0; i < n; ++i) {
    id += 1 + next(3);
    arrival += static_cast<Tick>(next(3)) * 500;  // repeats often
    const bool marked = next(2) == 0;
    q.push_back(fields(id, arrival, next(2) == 0, marked, 1 + static_cast<int>(next(3))));
  }
  return q;
}

TEST(PriorityKey, OrderEqualsThePairwiseReference) {
  for (auto kind : {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const auto q = randomQueue(seed, static_cast<int>(seed % 40) + 2);
      // Reference "a before b": a preferred, or tied and earlier in queue.
      auto before = [&](std::size_t a, std::size_t b) {
        if (prefers(kind, q[a], q[b])) return true;
        return !prefers(kind, q[b], q[a]) && a < b;
      };
      for (std::size_t a = 0; a < q.size(); ++a)
        for (std::size_t b = 0; b < q.size(); ++b) {
          if (a == b) continue;
          EXPECT_EQ(priorityKey(kind, q[a]) < priorityKey(kind, q[b]), before(a, b))
              << schedulerKindName(kind) << " seed " << seed << " pair " << a << "," << b;
        }
      EXPECT_EQ(firstByKey(kind, q), firstByScan(kind, q))
          << schedulerKindName(kind) << " seed " << seed;
    }
  }
}

TEST(PriorityKey, FieldsLandInTheirBits) {
  const std::uint64_t id = kKeyIdMask;  // the largest id a key holds
  EXPECT_EQ(priorityKey(SchedulerKind::Fcfs, fields(id, 0, false, true, 3)), id);
  EXPECT_EQ(priorityKey(SchedulerKind::FrFcfs, fields(id, 0, true)), id);
  EXPECT_EQ(priorityKey(SchedulerKind::FrFcfs, fields(id, 0, false)), id | (1ull << 62));
  EXPECT_EQ(priorityKey(SchedulerKind::ParBs, fields(id, 0, true, true, 3)),
            id | (3ull << kKeyIdBits));
  EXPECT_EQ(priorityKey(SchedulerKind::ParBs, fields(id, 0, false, false)),
            id | (1ull << 62) | (1ull << 63));
  // The largest rank a key holds still sorts below every unmarked request.
  const int maxRank = (1 << kKeyThreadRankBits) - 1;
  EXPECT_LT(priorityKey(SchedulerKind::ParBs, fields(id, 0, false, true, maxRank)),
            priorityKey(SchedulerKind::ParBs, fields(1, 0, true, false)));
}

}  // namespace
}  // namespace mb::mc
