// Golden-identity corpus: the canonical JSON report of every shipped preset,
// and of every multithreaded kernel plus one multiprogrammed mix on
// tsi-baseline, pinned as FNV-1a64 hashes.
//
// This is the bitwise guard for hot-path refactors: any change to the event
// engine, arbitration loop, schedulers, or statistics pipeline that alters a
// single bit of any preset's final report — one event fired in a different
// same-tick order, one double rounded differently — flips the hash and fails
// here. Conversely, a green run proves the optimized simulator is
// behavior-identical to the one that generated the corpus.
//
// Regeneration (after an INTENTIONAL behavior change only):
//   MB_UPDATE_GOLDEN=1 ./build/tests/integration_tests
//       --gtest_filter='GoldenReport.*'
// rewrites tests/golden/presets.txt in the source tree; commit the diff
// together with the change that motivated it and say why in the PR.
//
// The hashes cover runResultToJson(), which renders every double with %.17g
// (exact round-trip), so they pin the full bit pattern of every metric, not
// a rounded rendering. They are toolchain-sensitive by design — a different
// libm / compiler may legitimately produce different low bits; regenerate
// once per toolchain, then the corpus must stay stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "golden_file.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"

#ifndef MB_GOLDEN_FILE
#error "MB_GOLDEN_FILE must point at tests/golden/presets.txt"
#endif

namespace mb::sim {
namespace {

// One deterministic, fast configuration: the workload/slice every other
// bitwise gate in the repo uses (ci.sh checkpoint stage, audit fixtures).
constexpr const char* kWorkload = "429.mcf";
constexpr std::int64_t kInstrs = 10000;

std::uint64_t reportHashFor(const NamedConfig& preset) {
  SystemConfig cfg = preset.cfg;
  cfg.core.maxInstrs = kInstrs;
  const RunResult r = runSpecApp(kWorkload, cfg);
  return ckpt::fnv1a64(runResultToJson(r));
}

// The workload-kind corpus: every MtKind and one Mix on tsi-baseline, keyed
// "<preset>/<workload>" (preset names never contain '/'). Slices are per
// core: long enough that all 64 cores reach every channel and the
// directory, short enough that the six runs together take about 2.5 s in
// an optimised build.
struct KindCase {
  WorkloadSpec workload;
  std::int64_t instrs;
};

std::vector<KindCase> kindCases() {
  using trace::MtKind;
  return {{WorkloadSpec::mt(MtKind::Radix), 6000},
          {WorkloadSpec::mt(MtKind::Fft), 8000},
          {WorkloadSpec::mt(MtKind::Canneal), 8000},
          {WorkloadSpec::mt(MtKind::TpcC), 8000},
          {WorkloadSpec::mt(MtKind::TpcH), 8000},
          {WorkloadSpec::mix("mix-high"), 10000}};
}

std::string kindKey(const KindCase& c) { return "tsi-baseline/" + c.workload.name; }

std::uint64_t reportHashFor(const KindCase& c) {
  SystemConfig cfg = tsiBaselineConfig();
  cfg.core.maxInstrs = c.instrs;
  const RunResult r = runSimulation(cfg, c.workload);
  return ckpt::fnv1a64(runResultToJson(r));
}

bool isKindKey(const std::string& name) {
  return name.find('/') != std::string::npos;
}

void rewriteGoldenFile(const golden::Entries& updates) {
  std::ostringstream header;
  header << "# FNV-1a64 of runResultToJson() per shipped preset (workload="
         << kWorkload << " instrs=" << kInstrs << "),\n"
         << "# then per workload kind on tsi-baseline (\"preset/workload\"; slices in\n"
         << "# golden_report_test.cpp). seed=12345 throughout.\n"
         << "# Regenerate: MB_UPDATE_GOLDEN=1 "
            "./build/tests/integration_tests --gtest_filter='GoldenReport.*'\n";
  golden::rewrite(MB_GOLDEN_FILE, header.str(), updates);
}

TEST(GoldenReport, AllPresetsMatchCommittedHashes) {
  const auto presets = shippedPresets();
  ASSERT_EQ(presets.size(), 13u) << "preset list changed; update this corpus "
                                    "and the golden file together";

  const bool update = golden::updating();
  if (!update) {
    std::size_t presetEntries = 0;
    for (const auto& [name, hash] : golden::readEntries(MB_GOLDEN_FILE))
      presetEntries += !isKindKey(name);
    ASSERT_EQ(presetEntries, presets.size())
        << "golden file " << MB_GOLDEN_FILE
        << " is missing entries; regenerate with MB_UPDATE_GOLDEN=1";
  }

  golden::Entries hashes;
  for (const auto& preset : presets)
    hashes.emplace_back(preset.name, reportHashFor(preset));
  if (update) {
    rewriteGoldenFile(hashes);
    return;
  }
  const std::string detail = golden::mismatches(MB_GOLDEN_FILE, hashes);
  EXPECT_TRUE(detail.empty())
      << "preset reports diverged from the golden corpus:\n"
      << detail
      << "If this change was intended, regenerate with MB_UPDATE_GOLDEN=1 and "
         "justify the new hashes in the PR.";
}

// The preset corpus runs 429.mcf only: one single-threaded SPEC copy per
// core on one channel, so same-tick CPU<->channel ordering across channels,
// directory traffic and multi-channel interleaving never show up in it.
// This corpus pins the rest of the workload space — every multithreaded
// kernel (64 cores, every channel) and a multiprogrammed mix — against
// the same committed file.
TEST(GoldenReport, WorkloadKindsMatchCommittedHashes) {
  golden::Entries hashes;
  for (const auto& c : kindCases()) hashes.emplace_back(kindKey(c), reportHashFor(c));
  if (golden::updating()) {
    rewriteGoldenFile(hashes);
    return;
  }
  const std::string detail = golden::mismatches(MB_GOLDEN_FILE, hashes);
  EXPECT_TRUE(detail.empty())
      << "workload reports diverged from the golden corpus:\n"
      << detail
      << "If this change was intended, regenerate with MB_UPDATE_GOLDEN=1 and "
         "justify the new hashes in the PR.";
}

// The hash input is the journal-exact JSON rendering, so two runs of the
// same binary must agree bit-for-bit — a cheap in-process determinism check
// that fails loudly if anything nondeterministic (iteration order,
// uninitialized reads) leaks into the report path.
TEST(GoldenReport, ReportIsDeterministicWithinProcess) {
  SystemConfig cfg = tsiBaselineConfig();
  cfg.core.maxInstrs = kInstrs;
  const RunResult a = runSpecApp(kWorkload, cfg);
  const RunResult b = runSpecApp(kWorkload, cfg);
  EXPECT_EQ(runResultToJson(a), runResultToJson(b));
}

}  // namespace
}  // namespace mb::sim
