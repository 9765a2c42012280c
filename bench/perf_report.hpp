// JSON/baseline emission and RSS sampling for mbperf, extracted from the
// harness binary so tests can pin the writer: a long preset name must never
// truncate into invalid JSON (MBPERF1 consumers parse the record), and the
// baseline's preset list must track the shipped preset table.
//
// RSS semantics: `ru_maxrss` is a process-lifetime HIGH-WATER mark, so the
// absolute value sampled after preset N includes every earlier preset's
// footprint. The harness therefore reports per-preset DELTAS — the growth of
// the high-water mark attributable to that preset's runs (0 when it fits
// inside an earlier peak) — under the existing `peakRssKiB` key; only the
// `totals` block carries the process-wide peak.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <istream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace mb::bench {

struct PresetPerf {
  std::string preset;
  double wallSeconds = 0.0;
  std::uint64_t events = 0;
  double eventsPerSec = 0.0;
  double simulatedCyclesPerSec = 0.0;
  long peakRssKiB = 0;  // delta of the process high-water mark (see header)
  // Memory-controller arbitration work of one run (sim::RunResult::mcKicks
  // and the eight after it); deterministic, so any repeat gives the same.
  std::int64_t kicks = 0;
  std::int64_t arbPasses = 0;
  std::int64_t wakeOnlyPasses = 0;
  std::int64_t batchFormations = 0;
  std::int64_t candidatesEvaluated = 0;
  std::int64_t candidateRefreshes = 0;
  std::int64_t preBlockVisits = 0;
  std::int64_t noopKicks = 0;
  std::int64_t commandsIssued = 0;
};

struct ReportMeta {
  std::string workload;
  std::int64_t instrs = 0;
  int repeat = 0;
};

/// Serve-path metrics (mbperf --serve): how much the mbserve memo cache and
/// warmup-snapshot LRU actually buy on this host. `coldSeconds` is the full
/// simulate + serialize + store path for one point; `cachedSeconds` is the
/// memo lookup returning the identical bytes. Best-of timings like the
/// preset table.
struct ServePerf {
  double coldSeconds = 0.0;
  double cachedSeconds = 0.0;
  std::int64_t lruHits = 0;
  std::int64_t lruMisses = 0;
};

/// Process peak RSS in KiB. ru_maxrss is reported in KiB on Linux but in
/// BYTES on macOS; every consumer goes through this helper so the unit quirk
/// lives in exactly one place.
inline long currentPeakRssKiB() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;
#else
  return ru.ru_maxrss;
#endif
}

inline std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// %.6g rendering of a double. A 64-byte buffer cannot truncate this format;
/// the old whole-record snprintf used a 256-byte line buffer and ignored the
/// return value, so a long preset name silently dropped the record's tail —
/// including the closing braces — and produced unparseable JSON.
inline std::string fmtG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// The MBPERF1 record. Built with unbounded string appends — no fixed-size
/// line buffer anywhere — so arbitrarily long preset names stay valid JSON.
/// `serve` (optional) adds a "serve" block with the memo-cache cold/cached
/// latencies, the derived speedup, and the snapshot-LRU hit rate.
inline std::string perfJson(const std::vector<PresetPerf>& perfs,
                            const ReportMeta& meta, long totalPeakRssKiB,
                            const ServePerf* serve = nullptr) {
  double totalWall = 0.0;
  std::uint64_t totalEvents = 0;
  for (const auto& p : perfs) {
    totalWall += p.wallSeconds;
    totalEvents += p.events;
  }
  std::ostringstream out;
  out << "{\"format\":\"MBPERF1\",\"workload\":\"" << jsonEscape(meta.workload)
      << "\",\"instrs\":" << meta.instrs << ",\"repeat\":" << meta.repeat
      << ",\"presets\":[";
  for (std::size_t i = 0; i < perfs.size(); ++i) {
    const auto& p = perfs[i];
    if (i != 0) out << ',';
    out << "{\"preset\":\"" << jsonEscape(p.preset)
        << "\",\"wallSeconds\":" << fmtG(p.wallSeconds)
        << ",\"events\":" << p.events
        << ",\"eventsPerSec\":" << fmtG(p.eventsPerSec)
        << ",\"simulatedCyclesPerSec\":" << fmtG(p.simulatedCyclesPerSec)
        << ",\"peakRssKiB\":" << p.peakRssKiB
        << ",\"kicks\":" << p.kicks
        << ",\"arbPasses\":" << p.arbPasses
        << ",\"wakeOnlyPasses\":" << p.wakeOnlyPasses
        << ",\"batchFormations\":" << p.batchFormations
        << ",\"candidatesEvaluated\":" << p.candidatesEvaluated
        << ",\"candidateRefreshes\":" << p.candidateRefreshes
        << ",\"preBlockVisits\":" << p.preBlockVisits
        << ",\"noopKicks\":" << p.noopKicks
        << ",\"commandsIssued\":" << p.commandsIssued << '}';
  }
  out << ']';
  if (serve != nullptr) {
    const std::int64_t lruTotal = serve->lruHits + serve->lruMisses;
    out << ",\"serve\":{\"coldSeconds\":" << fmtG(serve->coldSeconds)
        << ",\"cachedSeconds\":" << fmtG(serve->cachedSeconds)
        << ",\"speedup\":"
        << fmtG(serve->cachedSeconds > 0.0
                    ? serve->coldSeconds / serve->cachedSeconds
                    : 0.0)
        << ",\"lruHits\":" << serve->lruHits
        << ",\"lruMisses\":" << serve->lruMisses << ",\"lruHitRate\":"
        << fmtG(lruTotal > 0 ? static_cast<double>(serve->lruHits) /
                                   static_cast<double>(lruTotal)
                             : 0.0)
        << '}';
  }
  out << ",\"totals\":{\"wallSeconds\":" << fmtG(totalWall)
      << ",\"events\":" << totalEvents << ",\"eventsPerSec\":"
      << fmtG(totalWall > 0.0 ? static_cast<double>(totalEvents) / totalWall
                              : 0.0)
      << ",\"peakRssKiB\":" << totalPeakRssKiB << "}}\n";
  return out.str();
}

/// Parse a perf_baseline.txt stream: `name events/sec` lines, '#' comments.
inline std::map<std::string, double> readBaseline(std::istream& in) {
  std::map<std::string, double> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    double eps = 0.0;
    if (ls >> name >> eps) out[name] = eps;
  }
  return out;
}

}  // namespace mb::bench
