#include "analysis/trace_audit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "mc/command_log.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "temp_path.hpp"

namespace mb::analysis {
namespace {

std::string tmpTracePath(const std::string& tag) {
  return testTempPath("mbaudit_test_" + tag + ".mbc");
}

// Record a short run of `cfg` and load the resulting command trace.
mc::CmdTrace recordTrace(sim::SystemConfig cfg, const std::string& tag,
                         std::int64_t instrs) {
  const auto path = tmpTracePath(tag);
  cfg.core.maxInstrs = instrs;
  cfg.recordCmdsPath = path;
  const auto workload = sim::WorkloadSpec::spec("429.mcf");
  sim::runSimulation(cfg, workload);
  DiagnosticEngine diags;
  auto trace = mc::readCmdTrace(path, diags);
  EXPECT_TRUE(trace.has_value()) << diags.renderText();
  std::remove(path.c_str());
  return *trace;
}

// ---- Clean traces ---------------------------------------------------------

// Every shipped preset must record a trace that the independent auditor
// accepts end to end: protocol, bank state, address round-trip, and the
// energy/count trailer cross-check (0.1% tolerance) all clean. This is the
// acceptance gate for the recorder and auditor agreeing on the protocol.
TEST(TraceAudit, AllShippedPresetsAuditClean) {
  for (const auto& p : sim::shippedPresets()) {
    auto trace = recordTrace(p.cfg, p.name, 6000);
    mc::CmdTraceConfig expect =
        sim::cmdTraceConfigFor(p.cfg, sim::WorkloadSpec::spec(""));
    TraceAuditOptions opts;
    opts.expectConfig = &expect;
    DiagnosticEngine diags;
    const auto res = auditCmdTrace(trace, diags, opts);
    EXPECT_FALSE(diags.hasErrors())
        << "preset " << p.name << ":\n" << diags.renderText();
    EXPECT_EQ(res.commandsRejected, 0) << "preset " << p.name;
    EXPECT_GT(res.eventsAudited, 0) << "preset " << p.name;
    EXPECT_GT(res.activations, 0) << "preset " << p.name;
    // The recomputed total agrees with the live meter totals in the trailer.
    ASSERT_TRUE(trace.trailer.present);
    const double live = trace.trailer.actPre + trace.trailer.rdwr +
                        trace.trailer.io + trace.trailer.staticEnergy;
    EXPECT_LE(std::abs(res.recomputedTotal() - live),
              1e-3 * std::max(std::abs(live), 1.0))
        << "preset " << p.name;
  }
}

TEST(TraceAudit, RecordingDoesNotPerturbTheSimulation) {
  sim::SystemConfig cfg;
  cfg.core.maxInstrs = 30000;
  const auto workload = sim::WorkloadSpec::spec("433.milc");
  const auto plain = sim::runSimulation(cfg, workload);
  const auto path = tmpTracePath("perturb");
  cfg.recordCmdsPath = path;
  const auto recorded = sim::runSimulation(cfg, workload);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(plain.systemIpc, recorded.systemIpc);
  EXPECT_EQ(plain.elapsed, recorded.elapsed);
  EXPECT_EQ(plain.dramReads, recorded.dramReads);
  EXPECT_DOUBLE_EQ(plain.energy.total(), recorded.energy.total());
}

TEST(TraceAudit, ConfigMismatchIsAud021) {
  auto trace = recordTrace(sim::SystemConfig{}, "cfgmismatch", 4000);
  mc::CmdTraceConfig expect = trace.config;
  expect.geom.banksPerRank *= 2;  // deliberately wrong expectation
  TraceAuditOptions opts;
  opts.expectConfig = &expect;
  DiagnosticEngine diags;
  auditCmdTrace(trace, diags, opts);
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics().front().code, "MB-AUD-021");
}

TEST(TraceAudit, MissingTrailerIsAud022Warning) {
  auto trace = recordTrace(sim::SystemConfig{}, "notrailer", 4000);
  trace.trailer = mc::CmdTraceTrailer{};  // as if the run never finalized
  DiagnosticEngine diags;
  auditCmdTrace(trace, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderText();
  EXPECT_EQ(diags.count(Severity::Warning), 1);
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics().front().code, "MB-AUD-022");
}

// ---- Mutation self-test ---------------------------------------------------
// Each planted single-command defect must surface as its expected MB-AUD
// code FIRST — proving the corresponding check actually fires rather than
// merely that clean traces pass.

class TraceAuditMutation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    baseline_ = new mc::CmdTrace(
        recordTrace(sim::SystemConfig{}, "mutation_base", 20000));
  }
  static void TearDownTestSuite() {
    delete baseline_;
    baseline_ = nullptr;
  }
  static mc::CmdTrace* baseline_;
};

mc::CmdTrace* TraceAuditMutation::baseline_ = nullptr;

TEST_F(TraceAuditMutation, EveryMutationTripsItsExpectedCodeFirst) {
  for (int k = 0; k < kTraceMutationCount; ++k) {
    const auto m = static_cast<TraceMutation>(k);
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
      mc::CmdTrace mutant = *baseline_;
      ASSERT_TRUE(applyTraceMutation(mutant, m, seed))
          << "no eligible victim for " << traceMutationName(m)
          << " (seed " << seed << ")";
      DiagnosticEngine diags;
      auditCmdTrace(mutant, diags);
      ASSERT_TRUE(diags.hasErrors())
          << traceMutationName(m) << " (seed " << seed << ") audited clean";
      ASSERT_FALSE(diags.diagnostics().empty());
      EXPECT_EQ(diags.diagnostics().front().code, traceMutationExpectedCode(m))
          << traceMutationName(m) << " (seed " << seed << "):\n"
          << diags.diagnostics().front().text();
    }
  }
}

TEST_F(TraceAuditMutation, CleanBaselineStaysClean) {
  DiagnosticEngine diags;
  const auto res = auditCmdTrace(*baseline_, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.renderText();
  EXPECT_EQ(res.commandsRejected, 0);
}

TEST(TraceAuditMutation2, NameTableRoundTrips) {
  for (int k = 0; k < kTraceMutationCount; ++k) {
    const auto m = static_cast<TraceMutation>(k);
    const auto back = traceMutationFromName(traceMutationName(m));
    ASSERT_TRUE(back.has_value()) << traceMutationName(m);
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(traceMutationFromName("no-such-mutation").has_value());
}

}  // namespace
}  // namespace mb::analysis
