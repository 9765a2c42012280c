// Serialization-completeness static analysis (mbsnapcheck's engine).
//
// Every stateful component describes its snapshot state once, as an io()
// walk that writes the snapshot through ckpt::SaveArchive and reads it back
// through ckpt::LoadArchive (ckpt/serialize.hpp). One walk cannot put two
// directions out of step the way hand-mirrored save/load pairs could, so
// what is left to check statically is what the walk leaves out or what
// sneaks a second description of the format back in. SnapLinter does that
// the way DetLinter closes the determinism gap: an in-repo,
// dependency-free lexical pass (shared tokenizer: analysis/cxx_lexer.hpp),
// heuristic by design, with a mandatory-reason suppression trail.
//
// For every io()/ioXxx() walk it extracts the *ordered stream* of archive
// ops — primitives and checked helpers by wire type (ar.u64Count -> u64),
// sub-object walks (ar.sub(x) -> sub:x), ioXxx helper calls (call:Xxx) and
// mapSorted expansions (u64,i64) — and fingerprints it. Registry
// (DESIGN.md §"Snapshot completeness analysis"):
//
//   MB-SNP-001  a wire op inside a direction-specific branch
//               (`if constexpr (Ar::kLoading)` or its else), or a
//               hand-written save()/load() body doing its own wire ops
//   MB-SNP-002  retired (section-name mismatch; one section list now
//               drives capture and restore); reserved, never reused
//   MB-SNP-003  non-static data member never walked and not declared
//               MB_SNAP_TRANSIENT, yet mutated outside io() or assigned
//               under Ar::kLoading — the "forgot to serialize the new
//               field" bug
//   MB-SNP-004  format-fingerprint drift: a walk's stream fingerprint
//               differs from the committed baseline without a
//               kSnapshotVersion bump, or the baseline was recorded for
//               another version (--write-baseline regenerates)
//   MB-SNP-005  io() sizes a loop/container from a raw u32/u64 with no
//               fail() guard in the body (use ar.u64Count())
//   MB-SNP-006  retired (folded into 003); reserved, never reused
//   MB-SNP-007  malformed annotation (missing reason, unknown code,
//               MB_SNAP_TRANSIENT naming no declared member)
//   MB-SNP-008  (warning) unused suppression, or MB_SNAP_TRANSIENT on a
//               member that io() actually walks
//
// Annotations are defined in common/ownership.hpp and recognized lexically
// in code or comments, same contract as the MB_DET vocabulary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cxx_lexer.hpp"
#include "analysis/diagnostic.hpp"

namespace mb::analysis {

struct SnapLintOptions {
  /// The MBCKPT1 container format version the scanned tree declares
  /// (ckpt::kSnapshotVersion). A fingerprint that differs from the
  /// baseline's is an error (MB-SNP-004), and so is a baseline recorded for
  /// another version: a version bump legitimizes the drift only once the
  /// baseline is regenerated for it. Negative means "unknown" (no baseline
  /// semantics; 004 never fires).
  int snapshotVersion = -1;
  /// Contents of the committed fingerprint baseline (empty: no baseline,
  /// 004 reports every pair as unbaselined at Warning severity only when
  /// a baseline was supplied — so fresh checkouts without one stay quiet).
  std::string baselineContents;
  bool haveBaseline = false;
};

/// One analyzed source file, path as it should appear in diagnostics.
struct SnapFileInput {
  std::string path;
  std::string contents;
};

/// An applied or dangling MB_SNAP_ALLOW, kept for the audit trail.
struct SnapSuppression {
  std::string code;
  std::string reason;
  std::string file;
  int line = 0;
  bool fileScope = false;
  int uses = 0;
};

/// One io() walk and its canonical stream, exposed for the fingerprint
/// baseline and the tools' reporting.
struct SnapWalk {
  std::string key;  // "Class::Suffix" ("Class::" for io, "Class::Pending"
                    //  for ioPending, "::Stamp" for a free ioStamp helper)
  std::string file;
  int line = 0;
  std::string stream;             // canonical comma-joined op spelling
  std::uint64_t fingerprint = 0;  // FNV-1a64 of stream
};

class SnapLinter {
 public:
  explicit SnapLinter(DiagnosticEngine& engine, SnapLintOptions opts = {});

  /// Analyze the given files as one program. Diagnostics land in the engine
  /// sorted by (file, line, code).
  void run(const std::vector<SnapFileInput>& files);

  const std::vector<SnapWalk>& walks() const { return walks_; }
  const std::vector<SnapSuppression>& suppressions() const { return suppressions_; }

  /// Render the fingerprint baseline for --write-baseline: a version line
  /// followed by one `key fingerprint-hex` line per walk, sorted by key.
  std::string renderBaseline() const;

 private:
  DiagnosticEngine& engine_;
  SnapLintOptions opts_;
  std::vector<SnapWalk> walks_;
  std::vector<SnapSuppression> suppressions_;
};

/// Parse `kSnapshotVersion = N` out of the snapshot header's text; -1 when
/// absent (the tool feeds this into SnapLintOptions::snapshotVersion).
int parseSnapshotVersion(const std::string& headerText);

}  // namespace mb::analysis
