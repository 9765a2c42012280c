// Unit tests for the serialization-completeness linter. The seeded fixture
// corpus under tests/analysis/snap_fixtures/ exercises the shipped CLI
// (`mbsnapcheck --self-test`); these tests pin the engine's behaviour on
// in-memory snippets: io() stream extraction, direction-specific branches,
// hand-written entry points, completeness, annotations, suppressions, and
// the fingerprint baseline round trip.
#include "analysis/snap_lint.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mb::analysis {
namespace {

struct LintRun {
  DiagnosticEngine engine;
  std::vector<SnapWalk> walks;
  std::vector<SnapSuppression> suppressions;
  std::string baseline;
};

LintRun lint(const std::vector<SnapFileInput>& files, SnapLintOptions opts = {}) {
  LintRun run;
  SnapLinter linter(run.engine, std::move(opts));
  linter.run(files);
  run.walks = linter.walks();
  run.suppressions = linter.suppressions();
  run.baseline = linter.renderBaseline();
  return run;
}

LintRun lintOne(const std::string& contents, SnapLintOptions opts = {}) {
  return lint({{"t.cpp", contents}}, std::move(opts));
}

int countCode(const LintRun& run, const std::string& code) {
  int n = 0;
  for (const Diagnostic& d : run.engine.diagnostics())
    if (d.code == code) ++n;
  return n;
}

const SnapWalk* findWalk(const LintRun& run, const std::string& key) {
  for (const SnapWalk& w : run.walks)
    if (w.key == key) return &w;
  return nullptr;
}

const char* kWalk = R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); ar.i64(b_); }
  MB_SNAP_ENTRY_POINTS(, );
 private:
  std::uint32_t a_ = 0;
  std::int64_t b_ = 0;
};
)";

TEST(SnapLint, WireOpInADirectionSpecificBranchIs001) {
  const LintRun loading = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    ar.u32(a_);
    if constexpr (Ar::kLoading) ar.i64(b_);
  }
 private:
  std::uint32_t a_ = 0; std::int64_t b_ = 0;
};
)");
  EXPECT_EQ(countCode(loading, "MB-SNP-001"), 1) << loading.engine.renderText();

  // The else of a loading branch saves only; a negated condition too.
  const LintRun saving = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    if constexpr (Ar::kLoading) {
      a_ = 0;
    } else {
      ar.u32(a_);
    }
    if constexpr (!Ar::kLoading) ar.sub(inner_);
  }
 private:
  std::uint32_t a_ = 0; Inner inner_;
};
)");
  EXPECT_EQ(countCode(saving, "MB-SNP-001"), 2) << saving.engine.renderText();
}

TEST(SnapLint, HandWrittenSaveIs001) {
  const LintRun run = lintOne(R"(
class S {
 public:
  void save(ckpt::Writer& w) const { w.u32(a_); }
 private:
  std::uint32_t a_ = 0;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-001"), 1);
}

TEST(SnapLint, CheckedHelpersSpellTheirWireType) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    std::uint64_t n = v_.size();
    ar.u64Count(n, 4);
    if constexpr (Ar::kLoading) v_.assign(n, 0);
    for (auto& x : v_) ar.u32(x);
    ar.u64Expect(fixed_.size());
    ar.u8Enum(kind_, Kind::Last);
    ar.i32Index(slot_, 8, -1);
    ar.mapSorted(m_, 12, [&](int& x) { ar.i32(x); });
  }
 private:
  std::vector<std::uint32_t> v_;
  std::vector<int> fixed_;
  Kind kind_{};
  int slot_ = -1;
  FlatMap<std::int64_t, int> m_;
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
  EXPECT_EQ(findWalk(run, "S::")->stream, "u64,u32,u64,u8,i32,u64,i64,i32");
}

TEST(SnapLint, SubObjectAndHelperCallsSpellByName) {
  const LintRun run = lintOne(R"(
template <class Ar> void ioExtras(Ar& ar, std::uint8_t& tag) { ar.u8(tag); }
class Outer {
 public:
  template <class Ar> void io(Ar& ar) {
    ar.sub(*inner_);
    ar.sub(hist.window);
    ioExtras(ar, tag_);
  }
 private:
  std::unique_ptr<Inner> inner_;
  History hist;
  std::uint8_t tag_ = 0;
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
  EXPECT_EQ(findWalk(run, "Outer::")->stream, "sub:inner_,sub:window,call:Extras");
  EXPECT_EQ(findWalk(run, "::Extras")->stream, "u8");
}

TEST(SnapLint, ForgottenMutatedMemberIs003) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); }
  void tick() { ++missing_; }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t missing_ = 0;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-003"), 1);
}

TEST(SnapLint, TransientAnnotationSilences003) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); }
  void tick() { ++scratch_; }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t scratch_ = 0;
  MB_SNAP_TRANSIENT(scratch_, "recomputed every tick");
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();

  // It also covers a member a loading branch rebuilds.
  const LintRun rebuilt = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    ar.i64(row_);
    if constexpr (Ar::kLoading) bit_ = row_ >= 0;
  }
 private:
  std::int64_t row_ = -1;
  bool bit_ = false;
  MB_SNAP_TRANSIENT(bit_, "mirror of row_ >= 0; rebuilt on load");
};
)");
  EXPECT_TRUE(rebuilt.engine.empty()) << rebuilt.engine.renderText();
}

TEST(SnapLint, UnguardedRawLengthIs005) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    std::uint64_t n = v_.size();
    ar.u64(n);
    if constexpr (Ar::kLoading) v_.resize(n);
    for (auto& x : v_) ar.u32(x);
  }
 private:
  std::vector<std::uint32_t> v_;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-005"), 1);
  EXPECT_EQ(countCode(run, "MB-SNP-001"), 0);
}

TEST(SnapLint, FailGuardSilences005) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    std::uint64_t n = v_.size();
    ar.u64(n);
    if (n > kMax) return ar.fail();
    if constexpr (Ar::kLoading) v_.resize(n);
    for (auto& x : v_) ar.u32(x);
  }
 private:
  std::vector<std::uint32_t> v_;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-005"), 0);
}

TEST(SnapLint, LoadOnlyAssignmentIs003) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) {
    ar.i64(row_);
    if constexpr (Ar::kLoading) bit_ = row_ >= 0;
  }
 private:
  std::int64_t row_ = -1;
  bool bit_ = false;
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-003"), 1) << run.engine.renderText();
  EXPECT_TRUE(run.engine.hasErrors());
}

TEST(SnapLint, MissingReasonIs007) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t b_ = 0;
  MB_SNAP_TRANSIENT(b_);
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-007"), 1);
}

TEST(SnapLint, StaleTransientOnSerializedMemberIs008) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); }
 private:
  std::uint32_t a_ = 0;
  MB_SNAP_TRANSIENT(a_, "no longer true: io() walks it");
};
)");
  EXPECT_EQ(countCode(run, "MB-SNP-008"), 1);
}

TEST(SnapLint, UsedSuppressionConsumesFinding) {
  const LintRun run = lintOne(R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); }
  void tick() { ++memo_; }
 private:
  std::uint32_t a_ = 0;
  std::uint64_t memo_ = 0; MB_SNAP_ALLOW(MB-SNP-003, "memo of a_; rebuilt lazily");
};
)");
  EXPECT_TRUE(run.engine.empty()) << run.engine.renderText();
  ASSERT_EQ(run.suppressions.size(), 1u);
  EXPECT_EQ(run.suppressions[0].uses, 1);
}

TEST(SnapLint, BaselineRoundTripAndDrift) {
  SnapLintOptions opts;
  opts.snapshotVersion = 1;
  const LintRun first = lintOne(kWalk, opts);
  EXPECT_NE(first.baseline.find("version 1"), std::string::npos);
  EXPECT_NE(first.baseline.find("S:: "), std::string::npos);

  // Re-lint against the recorded baseline: clean.
  SnapLintOptions again = opts;
  again.haveBaseline = true;
  again.baselineContents = first.baseline;
  EXPECT_TRUE(lintOne(kWalk, again).engine.empty());

  // Change the stream without bumping the version: MB-SNP-004.
  const std::string changed = R"(
class S {
 public:
  template <class Ar> void io(Ar& ar) { ar.u32(a_); ar.i64(b_); ar.u8(c_); }
 private:
  std::uint32_t a_ = 0;
  std::int64_t b_ = 0;
  std::uint8_t c_ = 0;
};
)";
  const LintRun drift = lintOne(changed, again);
  EXPECT_EQ(countCode(drift, "MB-SNP-004"), 1);
  EXPECT_TRUE(drift.engine.hasErrors());

  // Under a bumped version the drift is legitimate, but the baseline must be
  // regenerated for it: only the stale stamp is reported.
  SnapLintOptions bumped = again;
  bumped.snapshotVersion = 2;
  EXPECT_EQ(countCode(lintOne(changed, bumped), "MB-SNP-004"), 1);
}

TEST(SnapLint, BaselineFromAnotherVersionIs004) {
  SnapLintOptions opts;
  opts.snapshotVersion = 1;
  const std::string recorded = lintOne(kWalk, opts).baseline;

  SnapLintOptions newer;
  newer.snapshotVersion = 2;
  newer.haveBaseline = true;
  newer.baselineContents = recorded;
  const LintRun run = lintOne(kWalk, newer);
  ASSERT_EQ(countCode(run, "MB-SNP-004"), 1) << run.engine.renderText();
  EXPECT_TRUE(run.engine.hasErrors());
  EXPECT_NE(run.engine.diagnostics()[0].message.find("recorded for v1"),
            std::string::npos);
  EXPECT_NE(run.engine.diagnostics()[0].message.find("declares v2"),
            std::string::npos);
}

TEST(SnapLint, ParseSnapshotVersion) {
  EXPECT_EQ(parseSnapshotVersion("constexpr std::uint32_t kSnapshotVersion = 3;"), 3);
  EXPECT_EQ(parseSnapshotVersion("no version here"), -1);
}

}  // namespace
}  // namespace mb::analysis
