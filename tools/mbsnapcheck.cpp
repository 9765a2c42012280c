// mbsnapcheck — serialization-completeness analysis.
//
// Scans the simulator's own sources for checkpoint-format hazards around
// the io() walks every stateful component serializes through: wire ops that
// only one direction would run, hand-written save/load bodies that encode
// bytes themselves, data members the simulation mutates but no walk covers,
// fingerprint drift without a kSnapshotVersion bump, and walks that size
// containers from unguarded wire lengths (registry: DESIGN.md §"Snapshot
// completeness analysis"; annotations: common/ownership.hpp). Like mblint
// for configs, mbaudit for traces and mbdetcheck for determinism, it exits
// 0 only when the tree is clean.
//
//   mbsnapcheck                          scan ./src
//   mbsnapcheck --root=DIR               scan DIR/src
//   mbsnapcheck FILE...                  scan explicit files
//   mbsnapcheck --json                   machine-readable output
//   mbsnapcheck --baseline=FILE          fingerprint baseline
//                                        (default: ROOT/tools/snap_baseline.txt
//                                        when present)
//   mbsnapcheck --write-baseline=FILE    record current fingerprints
//   mbsnapcheck --self-test=DIR          run the seeded violation fixtures
//   mbsnapcheck --version
//
// The baseline is semantic, not positional: one `Class::Suffix fingerprint`
// line per walk stream plus the kSnapshotVersion it was recorded against
// (a baseline recorded for another version is itself MB-SNP-004). The self-test
// corpus protocol extends mbdetcheck's to warning-severity codes: a fixture
// named mbsnp_NNN_*.cpp must produce at least one finding with code
// MB-SNP-NNN and every *error* finding must carry that code; mbsnp_000_*
// must have no errors. Fixtures named *_004_* run against a synthesized
// stale baseline so fingerprint drift is exercised hermetically.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/snap_lint.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(
      stderr,
      "mbsnapcheck: %s\n(see the header of tools/mbsnapcheck.cpp for flags)\n",
      msg);
  std::exit(2);
}

bool matchFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (!startsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool isErrorSeverity(analysis::Severity s) {
  return s == analysis::Severity::Error || s == analysis::Severity::Fatal;
}

/// Run the seeded violation corpus (protocol in the file header).
int runSelfTest(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; it != end; it.increment(ec)) {
    if (ec) break;
    const std::string name = it->path().filename().string();
    if (name.size() > 10 && name.compare(0, 6, "mbsnp_") == 0 &&
        std::isdigit(static_cast<unsigned char>(name[6])) &&
        std::isdigit(static_cast<unsigned char>(name[7])) &&
        std::isdigit(static_cast<unsigned char>(name[8])) && name[9] == '_')
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  if (names.empty()) {
    std::fprintf(stderr, "mbsnapcheck: no mbsnp_NNN_* fixtures in %s\n",
                 dir.c_str());
    return 1;
  }
  int failures = 0;
  for (const std::string& name : names) {
    const std::string expected = "MB-SNP-" + name.substr(6, 3);
    const bool expectClean = name.compare(6, 3, "000") == 0;
    analysis::SnapFileInput input;
    input.path = name;
    if (!analysis::readFileToString((fs::path(dir) / name).string(),
                                    &input.contents)) {
      std::printf("FAIL %-40s (unreadable)\n", name.c_str());
      ++failures;
      continue;
    }
    analysis::SnapLintOptions opts;
    if (name.find("_004_") != std::string::npos) {
      // Hermetic fingerprint-drift setup: the fixture declares its own
      // kSnapshotVersion; a stale baseline for its pair forces the drift.
      opts.snapshotVersion = analysis::parseSnapshotVersion(input.contents);
      opts.haveBaseline = true;
      opts.baselineContents =
          "version " + std::to_string(opts.snapshotVersion) +
          "\nSnapDemo:: 0000000000000000\n";
    }
    analysis::DiagnosticEngine engine;
    analysis::SnapLinter linter(engine, opts);
    linter.run({input});
    std::size_t expectedHits = 0;
    std::vector<const analysis::Diagnostic*> errors;
    for (const analysis::Diagnostic& d : engine.diagnostics()) {
      if (d.code == expected) ++expectedHits;
      if (isErrorSeverity(d.severity)) errors.push_back(&d);
    }
    bool ok;
    if (expectClean) {
      ok = errors.empty();
    } else {
      ok = expectedHits > 0;
      for (const analysis::Diagnostic* d : errors)
        if (d->code != expected) ok = false;
    }
    if (ok) {
      if (expectClean)
        std::printf("ok   %-40s (clean, %zu suppression(s))\n", name.c_str(),
                    linter.suppressions().size());
      else
        std::printf("ok   %-40s (%s x%zu)\n", name.c_str(), expected.c_str(),
                    expectedHits);
    } else {
      std::printf("FAIL %-40s expected %s, got:\n", name.c_str(),
                  expectClean ? "clean" : expected.c_str());
      for (const analysis::Diagnostic& d : engine.diagnostics())
        std::printf("       %s\n", d.text().c_str());
      if (engine.diagnostics().empty()) std::printf("       (no findings)\n");
      ++failures;
    }
  }
  std::printf("self-test: %zu fixture(s), %d failure(s)\n", names.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> explicitFiles;
  std::string baselinePath, writeBaselinePath, selfTestDir;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--version") {
      std::fputs(versionBanner("mbsnapcheck").c_str(), stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (matchFlag(arg, "root", &value)) {
      root = value;
    } else if (matchFlag(arg, "baseline", &value)) {
      baselinePath = value;
    } else if (matchFlag(arg, "write-baseline", &value)) {
      writeBaselinePath = value;
    } else if (matchFlag(arg, "self-test", &value)) {
      selfTestDir = value;
    } else if (startsWith(arg, "--")) {
      usage(("unknown flag: " + arg).c_str());
    } else {
      explicitFiles.push_back(arg);
    }
  }

  if (!selfTestDir.empty()) return runSelfTest(selfTestDir);

  // Assemble the file list: explicit paths, or a deterministic tree walk.
  // ownership.hpp documents the annotation vocabulary and serialize.hpp
  // implements the Writer/Reader primitives themselves — scanning either
  // would only report their own documentation/implementation.
  std::vector<analysis::SnapFileInput> inputs;
  const bool treeScan = explicitFiles.empty();
  if (treeScan) {
    if (root.empty()) root = ".";
    for (const std::string& rel : analysis::collectSourceFiles(
             root, {"src"},
             {"common/ownership.hpp", "ckpt/serialize.hpp"})) {
      analysis::SnapFileInput in;
      in.path = rel;
      const std::string full = root == "." ? rel : root + "/" + rel;
      if (!analysis::readFileToString(full, &in.contents))
        usage(("cannot read " + full).c_str());
      inputs.push_back(std::move(in));
    }
  } else {
    for (const std::string& path : explicitFiles) {
      analysis::SnapFileInput in;
      in.path = path;
      if (!analysis::readFileToString(path, &in.contents))
        usage(("cannot read " + path).c_str());
      inputs.push_back(std::move(in));
    }
  }
  if (inputs.empty()) usage("no source files found");

  analysis::SnapLintOptions opts;
  // The format version gates MB-SNP-004: read it from the scanned tree.
  for (const analysis::SnapFileInput& in : inputs) {
    if (in.path.size() >= 17 &&
        in.path.compare(in.path.size() - 17, 17, "ckpt/snapshot.hpp") == 0) {
      opts.snapshotVersion = analysis::parseSnapshotVersion(in.contents);
      break;
    }
  }
  if (treeScan && baselinePath.empty()) {
    const std::string candidate = root + "/tools/snap_baseline.txt";
    std::ifstream probe(candidate);
    if (probe) baselinePath = candidate;
  }
  if (!baselinePath.empty()) {
    if (!analysis::readFileToString(baselinePath, &opts.baselineContents))
      usage(("cannot read baseline " + baselinePath).c_str());
    opts.haveBaseline = true;
  }

  analysis::DiagnosticEngine engine;
  analysis::SnapLinter linter(engine, opts);
  linter.run(inputs);

  int errors = 0, warnings = 0;
  for (const analysis::Diagnostic& d : engine.diagnostics()) {
    if (isErrorSeverity(d.severity)) ++errors;
    else if (d.severity == analysis::Severity::Warning) ++warnings;
  }

  if (!writeBaselinePath.empty()) {
    std::ofstream out(writeBaselinePath);
    if (!out) usage(("cannot write baseline " + writeBaselinePath).c_str());
    out << linter.renderBaseline();
    std::printf("mbsnapcheck: wrote %zu fingerprint(s) to %s\n",
                linter.walks().size(), writeBaselinePath.c_str());
  }

  if (json) {
    std::ostringstream os;
    os << "{\"tool\":\"" << analysis::jsonEscape(versionString())
       << "\",\"files\":" << inputs.size() << ",\"diagnostics\":[";
    const auto& diags = engine.diagnostics();
    for (std::size_t i = 0; i < diags.size(); ++i) {
      if (i) os << ',';
      os << diags[i].json();
    }
    os << "],\"suppressions\":[";
    const auto& sups = linter.suppressions();
    for (std::size_t i = 0; i < sups.size(); ++i) {
      if (i) os << ',';
      os << "{\"code\":\"" << analysis::jsonEscape(sups[i].code)
         << "\",\"file\":\"" << analysis::jsonEscape(sups[i].file)
         << "\",\"line\":" << sups[i].line
         << ",\"fileScope\":" << (sups[i].fileScope ? "true" : "false")
         << ",\"uses\":" << sups[i].uses << ",\"reason\":\""
         << analysis::jsonEscape(sups[i].reason) << "\"}";
    }
    os << "],\"walks\":[";
    const auto& walks = linter.walks();
    for (std::size_t i = 0; i < walks.size(); ++i) {
      if (i) os << ',';
      char buf[17];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(walks[i].fingerprint));
      os << "{\"key\":\"" << analysis::jsonEscape(walks[i].key)
         << "\",\"fingerprint\":\"" << buf << "\",\"stream\":\""
         << analysis::jsonEscape(walks[i].stream) << "\"}";
    }
    os << "],\"snapshotVersion\":" << opts.snapshotVersion
       << ",\"errors\":" << errors << ",\"warnings\":" << warnings << '}';
    std::printf("%s\n", os.str().c_str());
  } else {
    for (const analysis::Diagnostic& d : engine.diagnostics())
      std::printf("%s\n", d.text().c_str());
    for (const auto& s : linter.suppressions())
      std::printf("allow %s %s:%d x%d (%s)\n", s.code.c_str(), s.file.c_str(),
                  s.line, s.uses, s.reason.c_str());
    std::printf("mbsnapcheck: %zu file(s), %zu io walk(s), %d error(s), %d "
                "warning(s), %zu suppression(s)\n",
                inputs.size(), linter.walks().size(), errors, warnings,
                linter.suppressions().size());
  }
  return errors > 0 ? 1 : 0;
}
