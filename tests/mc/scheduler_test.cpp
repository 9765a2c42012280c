#include "mc/scheduler.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ckpt/serialize.hpp"
#include "snapshot_forge.hpp"

namespace mb::mc {
namespace {

Candidate cand(int idx, std::uint64_t id, ThreadId thread, Tick arrival, Tick earliest,
               bool rowHit) {
  Candidate c;
  c.queueIndex = idx;
  c.id = id;
  c.thread = thread;
  c.arrival = arrival;
  c.earliestIssue = earliest;
  c.rowHit = rowHit;
  return c;
}

MemRequest req(std::uint64_t id, ThreadId thread, Tick arrival) {
  MemRequest r;
  r.id = id;
  r.thread = thread;
  r.arrival = arrival;
  return r;
}

TEST(SchedulerFactory, CreatesAllKinds) {
  for (auto kind :
       {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    auto s = makeScheduler(kind);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), kind);
  }
}

TEST(Fcfs, PicksOldestIssuable) {
  FcfsScheduler s;
  std::vector<Candidate> cands{
      cand(0, 1, 0, 100, 0, true),
      cand(1, 2, 0, 50, 0, false),
      cand(2, 3, 0, 75, 0, true),
  };
  EXPECT_EQ(s.pick(cands, 0), 1);
}

TEST(Fcfs, SkipsFutureCandidates) {
  FcfsScheduler s;
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 500, false),
      cand(1, 2, 0, 90, 0, false),
  };
  EXPECT_EQ(s.pick(cands, 100), 1);
}

TEST(Fcfs, ReturnsMinusOneWhenNothingIssuable) {
  FcfsScheduler s;
  std::vector<Candidate> cands{cand(0, 1, 0, 10, 500, false)};
  EXPECT_EQ(s.pick(cands, 100), -1);
  EXPECT_EQ(s.pick(cands, 500), 0);
}

TEST(FrFcfs, PrefersRowHitOverAge) {
  FrFcfsScheduler s;
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 0, false),  // older conflict
      cand(1, 2, 0, 90, 0, true),   // younger hit
  };
  EXPECT_EQ(s.pick(cands, 100), 1);
}

TEST(FrFcfs, AgeBreaksTiesAmongHits) {
  FrFcfsScheduler s;
  std::vector<Candidate> cands{
      cand(0, 1, 0, 90, 0, true),
      cand(1, 2, 0, 10, 0, true),
  };
  EXPECT_EQ(s.pick(cands, 100), 1);
}

TEST(ParBs, MarkedBeatsUnmarkedRowHit) {
  ParBsScheduler s(/*markingCap=*/1);
  // Queue: thread 0 has an old request (gets marked), thread 1's second
  // request arrives after batch formation and is unmarked.
  const auto r1 = req(1, 0, 10);
  s.onEnqueue(r1);
  std::vector<Candidate> round1{cand(0, 1, 0, 10, 0, false)};
  EXPECT_EQ(s.pick(round1, 100), 0);  // forms batch, picks marked
  EXPECT_TRUE(s.isMarked(1));

  const auto r2 = req(2, 1, 20);
  s.onEnqueue(r2);
  std::vector<Candidate> round2{
      cand(0, 1, 0, 10, 0, false),  // marked conflict
      cand(1, 2, 1, 20, 0, true),   // unmarked hit
  };
  EXPECT_EQ(s.pick(round2, 100), 0);
}

TEST(ParBs, NewBatchFormsWhenMarkedDrains) {
  ParBsScheduler s(2);
  const auto r1 = req(1, 0, 10);
  s.onEnqueue(r1);
  std::vector<Candidate> c1{cand(0, 1, 0, 10, 0, false)};
  (void)s.pick(c1, 100);
  EXPECT_TRUE(s.isMarked(1));
  s.onDequeue(r1);
  EXPECT_FALSE(s.isMarked(1));

  const auto r2 = req(2, 1, 20);
  s.onEnqueue(r2);
  std::vector<Candidate> c2{cand(0, 2, 1, 20, 0, false)};
  (void)s.pick(c2, 100);
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
  s.onDequeue(r1);
  EXPECT_TRUE(s.formBatchIfDue());
  EXPECT_TRUE(s.isMarked(2));

  FrFcfsScheduler plain;
  plain.onEnqueue(r1);
  EXPECT_FALSE(plain.formBatchIfDue());
}

TEST(ParBs, MarkingCapLimitsPerThread) {
  ParBsScheduler s(2);
  for (std::uint64_t i = 1; i <= 5; ++i) s.onEnqueue(req(i, 0, static_cast<Tick>(i)));
  std::vector<Candidate> cands;
  for (std::uint64_t i = 1; i <= 5; ++i)
    cands.push_back(cand(static_cast<int>(i - 1), i, 0, static_cast<Tick>(i), 0, false));
  (void)s.pick(cands, 100);
  int marked = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) marked += s.isMarked(i) ? 1 : 0;
  EXPECT_EQ(marked, 2);
  EXPECT_TRUE(s.isMarked(1));  // oldest first
  EXPECT_TRUE(s.isMarked(2));
}

TEST(ParBs, ShortestJobThreadRankedFirst) {
  ParBsScheduler s(5);
  // Thread 0: three requests; thread 1: one request. All arrive before the
  // batch forms; thread 1 (fewer marked) should be served first among
  // equally-old, equally-row-state candidates.
  for (std::uint64_t i = 1; i <= 3; ++i) s.onEnqueue(req(i, 0, 10));
  s.onEnqueue(req(4, 1, 10));
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 0, false),
      cand(1, 2, 0, 10, 0, false),
      cand(2, 3, 0, 10, 0, false),
      cand(3, 4, 1, 10, 0, false),
  };
  EXPECT_EQ(s.pick(cands, 100), 3);
}

TEST(ParBs, RowHitStillWinsWithinBatch) {
  ParBsScheduler s(5);
  s.onEnqueue(req(1, 0, 10));
  s.onEnqueue(req(2, 0, 20));
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 0, false),
      cand(1, 2, 0, 20, 0, true),
  };
  EXPECT_EQ(s.pick(cands, 100), 1);
}

TEST(ParBs, EmptyCandidatesReturnsMinusOne) {
  ParBsScheduler s;
  std::vector<Candidate> cands;
  EXPECT_EQ(s.pick(cands, 0), -1);
}

// ---- Hostile snapshots -----------------------------------------------------
//
// PAR-BS saves its batch as key-sorted (id -> thread) and (thread -> count)
// lists ahead of the queue view, and load() resolves them into the view's
// marked bits. A list the view contradicts must fail the load.

constexpr std::uint64_t kMarkedId = 0xC0FFEE1234ull;

/// One queued request of thread 3, marked by the batch its pick formed.
std::string savedBatchOfOne() {
  ParBsScheduler s;
  s.onEnqueue(req(kMarkedId, 3, 10));
  std::vector<Candidate> cands{cand(0, kMarkedId, 3, 10, 0, false)};
  EXPECT_EQ(s.pick(cands, 100), 0);
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
// When candidates are indistinguishable under a policy's whole preference
// chain, the FIRST candidate in scan order must win — a strict `better`
// predicate never replaces the running best on a tie. This anchors bitwise
// reproducibility: the controller builds candidates in queue order, so the
// tie-break is "oldest queue position", independent of container or
// optimization-level accidents.

TEST(TieBreaks, FcfsEqualArrivalKeepsFirstScanned) {
  FcfsScheduler s;
  std::vector<Candidate> cands{
      cand(0, 7, 0, 50, 0, false),
      cand(1, 3, 1, 50, 0, true),   // same arrival, different everything else
      cand(2, 9, 2, 50, 0, false),
  };
  EXPECT_EQ(s.pick(cands, 100), 0);
}

TEST(TieBreaks, FrFcfsEqualRowHitEqualArrivalKeepsFirstScanned) {
  FrFcfsScheduler s;
  std::vector<Candidate> allHits{
      cand(0, 1, 0, 50, 0, true),
      cand(1, 2, 1, 50, 0, true),
  };
  EXPECT_EQ(s.pick(allHits, 100), 0);
  std::vector<Candidate> allMisses{
      cand(0, 1, 0, 50, 0, false),
      cand(1, 2, 1, 50, 0, false),
  };
  EXPECT_EQ(s.pick(allMisses, 100), 0);
}

TEST(TieBreaks, ParBsFullyTiedKeepsFirstScanned) {
  ParBsScheduler s(5);
  // Same thread, same arrival, same row state: marked flags and thread rank
  // are identical, so the full chain ties and index 0 must win.
  s.onEnqueue(req(1, 0, 50));
  s.onEnqueue(req(2, 0, 50));
  std::vector<Candidate> cands{
      cand(0, 1, 0, 50, 0, true),
      cand(1, 2, 0, 50, 0, true),
  };
  EXPECT_EQ(s.pick(cands, 100), 0);
}

// ---- pickPair consistency -------------------------------------------------
//
// The fused single-scan pickPair() must return exactly what the base-class
// reference (two independent pick() calls) returns, on every scheduler and
// on randomized candidate sets that mix ready, near-future, and far-future
// earliestIssue values. A qualified Scheduler::pickPair call bypasses the
// virtual dispatch and runs the reference implementation.

std::vector<Candidate> randomCands(std::uint64_t seed, int n, Tick now) {
  std::vector<Candidate> cands;
  // Tiny xorshift so the test controls its own reproducibility.
  std::uint64_t x = seed * 2654435761u + 1;
  auto next = [&x](std::uint64_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x % bound;
  };
  for (int i = 0; i < n; ++i) {
    Tick earliest;
    switch (next(4)) {
      case 0: earliest = now - static_cast<Tick>(next(1000)); break;  // ready
      case 1: earliest = now + 1 + static_cast<Tick>(next(500)); break;
      case 2: earliest = now + 100000 + static_cast<Tick>(next(100000)); break;
      default: earliest = kTickNever / 2 + 1; break;  // beyond gate horizon
    }
    cands.push_back(cand(i, static_cast<std::uint64_t>(i) + 1,
                         static_cast<ThreadId>(next(8)),
                         static_cast<Tick>(next(5000)), earliest,
                         next(2) == 0));
  }
  return cands;
}

TEST(PickPair, MatchesTwoPickReferenceOnAllSchedulers) {
  for (auto kind :
       {SchedulerKind::Fcfs, SchedulerKind::FrFcfs, SchedulerKind::ParBs}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      auto fused = makeScheduler(kind);
      auto reference = makeScheduler(kind);
      const Tick now = 10000;
      auto candsA = randomCands(seed, static_cast<int>(seed % 60) + 1, now);
      auto candsB = candsA;
      // Feed both schedulers the same queue view (ParBs batch state).
      for (const auto& c : candsA) {
        fused->onEnqueue(req(c.id, c.thread, c.arrival));
        reference->onEnqueue(req(c.id, c.thread, c.arrival));
      }
      const auto got = fused->pickPair(candsA, now);
      const auto want = reference->Scheduler::pickPair(candsB, now);
      EXPECT_EQ(got.issuable, want.issuable)
          << schedulerKindName(kind) << " seed " << seed;
      EXPECT_EQ(got.overall, want.overall)
          << schedulerKindName(kind) << " seed " << seed;
      // pickPair must also stamp ParBs marked flags identically to pick().
      for (std::size_t i = 0; i < candsA.size(); ++i)
        EXPECT_EQ(candsA[i].marked, candsB[i].marked)
            << schedulerKindName(kind) << " seed " << seed << " cand " << i;
    }
  }
}

TEST(PickPair, IssuableMatchesPickAndOverallIgnoresReadiness) {
  FrFcfsScheduler s;
  // Row-hit stream is ready now; a conflicting older request is ready just
  // after `now` — the gate scenario: issuable = the hit, overall = the hit
  // too (row hits outrank age in FR-FCFS), so overall==issuable here...
  std::vector<Candidate> cands{
      cand(0, 1, 0, 10, 150, false),  // older, not ready
      cand(1, 2, 0, 90, 0, true),     // younger hit, ready
  };
  auto p = s.pickPair(cands, 100);
  EXPECT_EQ(p.issuable, 1);
  EXPECT_EQ(p.overall, 1);
  // ...whereas under FCFS (age only) the overall favourite is the older,
  // not-yet-ready request: exactly the pair the priority gate inspects.
  FcfsScheduler fcfs;
  auto p2 = fcfs.pickPair(cands, 100);
  EXPECT_EQ(p2.issuable, 1);
  EXPECT_EQ(p2.overall, 0);
}

}  // namespace
}  // namespace mb::mc
