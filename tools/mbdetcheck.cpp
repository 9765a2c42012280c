// mbdetcheck — determinism & channel-ownership static analysis.
//
// Scans the simulator's own sources for the nondeterminism classes that
// would silently break per-channel windowed simulation: hash-order
// iteration, pointer-valued keys, wall clocks and libc randomness, hidden
// mutable statics, FP accumulation in hash order, and undeclared
// channel-local -> cross-channel references (registry: DESIGN.md
// §"Determinism & ownership analysis"; annotations: common/ownership.hpp).
// Like mblint for configs and mbaudit for traces, it exits 0 only when the
// tree is clean, so ctest/CI can gate on it.
//
//   mbdetcheck                         scan ./{src,bench,tools}
//   mbdetcheck --root=DIR              scan DIR/{src,bench,tools}
//   mbdetcheck FILE...                 scan explicit files
//   mbdetcheck --ownership             also print the ownership map
//   mbdetcheck --json                  machine-readable output
//   mbdetcheck --baseline=FILE         drop findings listed in FILE
//   mbdetcheck --write-baseline=FILE   record current findings as baseline
//   mbdetcheck --self-test=DIR         run the seeded violation fixtures
//   mbdetcheck --version
//
// Baseline lines are `CODE:file:line`; `--write-baseline` emits them sorted
// so the file diffs cleanly. The self-test corpus protocol: a fixture named
// mbdet_NNN_*.cpp must produce at least one finding, the first and every
// error finding carrying code MB-DET-NNN; mbdet_000_*.cpp must be clean.
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

#include "analysis/det_lint.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"

namespace {

using namespace mb;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mbdetcheck: %s\n(see the header of tools/mbdetcheck.cpp for flags)\n",
               msg);
  std::exit(2);
}

bool matchFlag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (!startsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool isErrorSeverity(analysis::Severity s) {
  return s == analysis::Severity::Error || s == analysis::Severity::Fatal;
}

std::string baselineKey(const analysis::Diagnostic& d) {
  return d.code + ":" + d.where.file + ":" + std::to_string(d.where.line);
}

/// Run the seeded violation corpus: each fixture must trip exactly its
/// expected code (or be clean for mbdet_000_*). Returns the process exit.
int runSelfTest(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; it != end; it.increment(ec)) {
    if (ec) break;
    const std::string name = it->path().filename().string();
    if (name.size() > 10 && name.compare(0, 6, "mbdet_") == 0 &&
        std::isdigit(static_cast<unsigned char>(name[6])) &&
        std::isdigit(static_cast<unsigned char>(name[7])) &&
        std::isdigit(static_cast<unsigned char>(name[8])) && name[9] == '_')
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  if (names.empty()) {
    std::fprintf(stderr, "mbdetcheck: no mbdet_NNN_* fixtures in %s\n", dir.c_str());
    return 1;
  }
  int failures = 0;
  for (const std::string& name : names) {
    const std::string expected = "MB-DET-" + name.substr(6, 3);
    const bool expectClean = name.compare(6, 3, "000") == 0;
    analysis::DetFileInput input;
    input.path = name;
    if (!analysis::readFileToString((fs::path(dir) / name).string(), &input.contents)) {
      std::printf("FAIL %-40s (unreadable)\n", name.c_str());
      ++failures;
      continue;
    }
    analysis::DiagnosticEngine engine;
    analysis::DetLinter linter(engine);
    linter.run({input});
    std::vector<const analysis::Diagnostic*> errors;
    for (const analysis::Diagnostic& d : engine.diagnostics())
      if (isErrorSeverity(d.severity)) errors.push_back(&d);
    bool ok;
    if (expectClean) {
      ok = errors.empty();
    } else {
      ok = !errors.empty();
      for (const analysis::Diagnostic* d : errors)
        if (d->code != expected) ok = false;
    }
    if (ok) {
      if (expectClean)
        std::printf("ok   %-40s (clean, %zu suppression(s))\n", name.c_str(),
                    linter.suppressions().size());
      else
        std::printf("ok   %-40s (%s x%zu)\n", name.c_str(), expected.c_str(),
                    errors.size());
    } else {
      std::printf("FAIL %-40s expected %s, got:\n", name.c_str(),
                  expectClean ? "clean" : expected.c_str());
      for (const analysis::Diagnostic& d : engine.diagnostics())
        std::printf("       %s\n", d.text().c_str());
      if (errors.empty()) std::printf("       (no error findings)\n");
      ++failures;
    }
  }
  std::printf("self-test: %zu fixture(s), %d failure(s)\n", names.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::vector<std::string> explicitFiles;
  std::string baselinePath, writeBaselinePath, selfTestDir;
  bool json = false, wantOwnership = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--version") {
      std::fputs(versionBanner("mbdetcheck").c_str(), stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--ownership") {
      wantOwnership = true;
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
  std::vector<analysis::DetFileInput> inputs;
  if (explicitFiles.empty()) {
    if (root.empty()) root = ".";
    for (const std::string& rel :
         analysis::collectDetSourceFiles(root, {"src", "bench", "tools"})) {
      analysis::DetFileInput in;
      in.path = rel;
      const std::string full = root == "." ? rel : root + "/" + rel;
      if (!analysis::readFileToString(full, &in.contents))
        usage(("cannot read " + full).c_str());
      inputs.push_back(std::move(in));
    }
  } else {
    for (const std::string& path : explicitFiles) {
      analysis::DetFileInput in;
      in.path = path;
      if (!analysis::readFileToString(path, &in.contents))
        usage(("cannot read " + path).c_str());
      inputs.push_back(std::move(in));
    }
  }
  if (inputs.empty()) usage("no source files found");

  analysis::DiagnosticEngine engine;
  analysis::DetLinter linter(engine);
  linter.run(inputs);

  std::set<std::string> baseline;
  if (!baselinePath.empty()) {
    std::ifstream in(baselinePath);
    if (!in) usage(("cannot read baseline " + baselinePath).c_str());
    std::string line;
    while (std::getline(in, line))
      if (!line.empty() && line[0] != '#') baseline.insert(line);
  }

  std::vector<const analysis::Diagnostic*> kept;
  int filtered = 0, errors = 0, warnings = 0;
  for (const analysis::Diagnostic& d : engine.diagnostics()) {
    if (baseline.count(baselineKey(d)) > 0) {
      ++filtered;
      continue;
    }
    kept.push_back(&d);
    if (isErrorSeverity(d.severity)) ++errors;
    else if (d.severity == analysis::Severity::Warning) ++warnings;
  }

  if (!writeBaselinePath.empty()) {
    std::vector<std::string> keys;
    for (const analysis::Diagnostic* d : kept) keys.push_back(baselineKey(*d));
    std::sort(keys.begin(), keys.end());
    std::ofstream out(writeBaselinePath);
    if (!out) usage(("cannot write baseline " + writeBaselinePath).c_str());
    out << "# mbdetcheck baseline — CODE:file:line, one accepted finding per line\n";
    for (const std::string& k : keys) out << k << '\n';
    std::printf("mbdetcheck: wrote %zu baseline entr%s to %s\n", keys.size(),
                keys.size() == 1 ? "y" : "ies", writeBaselinePath.c_str());
  }

  if (json) {
    std::ostringstream os;
    os << "{\"tool\":\"" << analysis::jsonEscape(versionString())
       << "\",\"files\":" << inputs.size() << ",\"diagnostics\":[";
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (i) os << ',';
      os << kept[i]->json();
    }
    os << "],\"suppressions\":[";
    const auto& sups = linter.suppressions();
    for (std::size_t i = 0; i < sups.size(); ++i) {
      if (i) os << ',';
      os << "{\"code\":\"" << analysis::jsonEscape(sups[i].code)
         << "\",\"file\":\"" << analysis::jsonEscape(sups[i].file)
         << "\",\"line\":" << sups[i].line << ",\"fileScope\":"
         << (sups[i].fileScope ? "true" : "false")
         << ",\"uses\":" << sups[i].uses << ",\"reason\":\""
         << analysis::jsonEscape(sups[i].reason) << "\"}";
    }
    os << "],\"baselineFiltered\":" << filtered;
    if (wantOwnership) os << ",\"ownership\":" << linter.ownership().json();
    os << ",\"errors\":" << errors << ",\"warnings\":" << warnings << '}';
    std::printf("%s\n", os.str().c_str());
  } else {
    for (const analysis::Diagnostic* d : kept) std::printf("%s\n", d->text().c_str());
    for (const auto& s : linter.suppressions())
      std::printf("allow %s %s:%d x%d (%s)\n", s.code.c_str(), s.file.c_str(),
                  s.line, s.uses, s.reason.c_str());
    if (wantOwnership) std::fputs(linter.ownership().text().c_str(), stdout);
    std::printf("mbdetcheck: %zu file(s), %d error(s), %d warning(s), "
                "%zu suppression(s), %d baseline-filtered\n",
                inputs.size(), errors, warnings, linter.suppressions().size(),
                filtered);
  }
  return errors > 0 ? 1 : 0;
}
