// Sweep-journal tests: exact JSONL round-trips (doubles bitwise, via
// %.17g/strtod), torn-write tolerance, identity enforcement, and the
// headline property — a resumed sweep is bit-identical to an
// uninterrupted one, including under per-point reseeding.
#include "sim/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "temp_path.hpp"

namespace mb::sim {
namespace {

/// runResultToJson prints every double with %.17g, which is injective on
/// finite doubles — so equal JSON means bitwise-equal results and vice
/// versa. That makes string comparison an exact equivalence check.
void expectSameResult(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(runResultToJson(a), runResultToJson(b));
}

RunResult awkwardResult() {
  RunResult r;
  r.workload = "odd \"quoted\" workload\\path";
  r.systemIpc = 1.0 / 3.0;       // not exactly representable in decimal
  r.elapsed = 123456789012345;
  r.instructions = 40000;
  r.energy.processor = 1e-300;   // subnormal territory round-trips too
  r.energy.dramActPre = -0.0;    // sign of zero survives
  r.energy.dramStatic = 6.02214076e23;
  r.energy.dramRdWr = 0.1;
  r.energy.io = 2.5;
  r.invEdp = 9.869604401089358e-13;
  r.rowHitRate = 0.30000000000000004;
  r.mapki = 17.5;
  r.dramReads = 1;
  r.dramWrites = 0;
  r.activations = 3;
  r.hierarchy.accesses = 123;
  r.hierarchy.prefetchUseful = 7;
  r.coreIpc = {1.0 / 7.0, 0.25, 1e-9};
  return r;
}

JournalHeader sampleHeader(std::size_t points) {
  JournalHeader h;
  h.tool = "microbank test";
  h.workload = "429.mcf";
  h.points = points;
  h.reseed = true;
  h.sweepHash = 0xABCDEF0123456789ull;
  return h;
}

TEST(Journal, WriteReadRoundTrip) {
  const std::string path = testTempPath("mb_journal_rt.jsonl");
  {
    JournalWriter w(path, sampleHeader(3));
    ASSERT_TRUE(w.ok());
    SweepOutcome ok;
    ok.index = 2;
    ok.label = "tsi-ubank(4,4)";
    ok.ok = true;
    ok.result = awkwardResult();
    w.append(ok);
    SweepOutcome bad;
    bad.index = 0;
    bad.label = "ddr3-pcb";
    bad.ok = false;
    bad.error = "check failed: queue overflow \"quoted\"";
    w.append(bad);
  }

  std::string err;
  const auto data = readJournal(path, &err);
  ASSERT_TRUE(data.has_value()) << err;
  EXPECT_EQ(data->header.tool, "microbank test");
  EXPECT_EQ(data->header.workload, "429.mcf");
  EXPECT_EQ(data->header.points, 3u);
  EXPECT_TRUE(data->header.reseed);
  EXPECT_EQ(data->header.sweepHash, 0xABCDEF0123456789ull);
  ASSERT_EQ(data->outcomes.size(), 2u);
  EXPECT_EQ(data->outcomes[0].index, 2u);
  EXPECT_EQ(data->outcomes[0].label, "tsi-ubank(4,4)");
  ASSERT_TRUE(data->outcomes[0].ok);
  expectSameResult(data->outcomes[0].result, awkwardResult());
  EXPECT_EQ(data->outcomes[1].index, 0u);
  ASSERT_FALSE(data->outcomes[1].ok);
  EXPECT_EQ(data->outcomes[1].error, "check failed: queue overflow \"quoted\"");
  std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsSkipped) {
  const std::string path = testTempPath("mb_journal_torn.jsonl");
  {
    JournalWriter w(path, sampleHeader(2));
    ASSERT_TRUE(w.ok());
    SweepOutcome ok;
    ok.index = 0;
    ok.label = "a";
    ok.ok = true;
    ok.result = awkwardResult();
    w.append(ok);
  }
  {
    // Simulate a crash mid-append: a partial line with no newline.
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "{\"point\":1,\"label\":\"b\",\"ok\":true,\"result\":{\"sys";
  }
  std::string err;
  const auto data = readJournal(path, &err);
  ASSERT_TRUE(data.has_value()) << err;
  ASSERT_EQ(data->outcomes.size(), 1u);  // the torn line is simply dropped
  EXPECT_EQ(data->outcomes[0].label, "a");
  std::remove(path.c_str());
}

TEST(Journal, RejectsForeignFile) {
  const std::string path = testTempPath("mb_journal_bad.jsonl");
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a journal at all\n";
  }
  std::string err;
  EXPECT_FALSE(readJournal(path, &err).has_value());
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());

  err.clear();
  EXPECT_FALSE(readJournal("/nonexistent/journal.jsonl", &err).has_value());
  EXPECT_FALSE(err.empty());
}

std::vector<SweepPoint> smallSweep() {
  const auto workload = WorkloadSpec::spec("429.mcf");
  std::vector<SweepPoint> points;
  for (int nw : {1, 2, 4}) {
    SystemConfig cfg = tsiBaselineConfig();
    cfg.core.maxInstrs = 8000;
    cfg.ubank = dram::UbankConfig{nw, 1};
    points.push_back({"nw" + std::to_string(nw), cfg, workload});
  }
  return points;
}

void expectSameOutcomes(const std::vector<SweepOutcome>& a,
                        const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].label, b[i].label);
    ASSERT_EQ(a[i].ok, b[i].ok);
    if (a[i].ok) expectSameResult(a[i].result, b[i].result);
  }
}

// The headline property: interrupt a journaled sweep after a prefix of its
// points, resume it, and the merged outcomes are bit-identical to one
// uninterrupted run — with reseeding ON, so the original point indices
// (not the filtered positions) must drive the per-point seed fold.
TEST(Journal, ResumedSweepBitIdenticalToFresh) {
  const auto points = smallSweep();
  SweepOptions opts;
  opts.jobs = 2;
  opts.reseedPoints = true;
  opts.progress = false;

  const std::string fresh = testTempPath("mb_journal_fresh.jsonl");
  std::string err;
  const auto full = runSweepJournaled("429.mcf", points, opts, fresh, false, &err);
  ASSERT_TRUE(full.has_value()) << err;
  ASSERT_EQ(full->size(), points.size());
  for (const auto& o : *full) EXPECT_TRUE(o.ok) << o.label << ": " << o.error;

  // Build the "interrupted" journal: the header plus the first recorded
  // point line (whatever finished first), as a crash would leave behind.
  std::vector<std::string> lines;
  {
    std::ifstream f(fresh, std::ios::binary);
    std::string line;
    while (std::getline(f, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), points.size() + 1);
  const std::string interrupted = testTempPath("mb_journal_part.jsonl");
  {
    std::ofstream f(interrupted, std::ios::binary);
    f << lines[0] << '\n' << lines[1] << '\n';
  }

  const auto resumed =
      runSweepJournaled("429.mcf", points, opts, interrupted, true, &err);
  ASSERT_TRUE(resumed.has_value()) << err;
  expectSameOutcomes(*full, *resumed);

  // After resume the journal is complete: resuming AGAIN replays everything
  // and runs nothing, with the same merged outcomes.
  const auto replayed =
      runSweepJournaled("429.mcf", points, opts, interrupted, true, &err);
  ASSERT_TRUE(replayed.has_value()) << err;
  expectSameOutcomes(*full, *replayed);

  std::remove(fresh.c_str());
  std::remove(interrupted.c_str());
}

TEST(Journal, ResumeRejectsDifferentSweep) {
  const auto points = smallSweep();
  SweepOptions opts;
  opts.jobs = 2;
  opts.progress = false;

  const std::string path = testTempPath("mb_journal_ident.jsonl");
  std::string err;
  ASSERT_TRUE(
      runSweepJournaled("429.mcf", points, opts, path, false, &err).has_value())
      << err;

  // Same journal, different sweep: a changed seed must be refused.
  auto changed = points;
  for (auto& p : changed) p.cfg.seed += 1;
  EXPECT_FALSE(
      runSweepJournaled("429.mcf", changed, opts, path, true, &err).has_value());
  EXPECT_FALSE(err.empty());

  // ...as must a changed reseed mode with the identical point list.
  SweepOptions reseeded = opts;
  reseeded.reseedPoints = true;
  err.clear();
  EXPECT_FALSE(
      runSweepJournaled("429.mcf", points, reseeded, path, true, &err).has_value());
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

TEST(Journal, SweepIdentityHashCoversLabelsSeedsAndMode) {
  const auto points = smallSweep();
  const auto base = sweepIdentityHash("429.mcf", points, false);
  EXPECT_NE(base, sweepIdentityHash("429.mcf", points, true));
  EXPECT_NE(base, sweepIdentityHash("TPC-H", points, false));

  auto renamed = points;
  renamed[1].label = "other";
  EXPECT_NE(base, sweepIdentityHash("429.mcf", renamed, false));

  auto reseeded = points;
  reseeded[2].cfg.seed ^= 1;
  EXPECT_NE(base, sweepIdentityHash("429.mcf", reseeded, false));
}

}  // namespace
}  // namespace mb::sim
