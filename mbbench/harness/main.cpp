// mbbench_harness — executes one benchmark run from a plan file and prints
// raw measurements, one JSON object per line, for run.py to aggregate.
//
//   mbbench_harness --plan=FILE
//
// The plan (written by run.py from the workload seed) is line oriented:
//
//   seconds S                measurement window
//   trace 0|1                1: the traced per-layer run instead
//   setup_reps N             set-ups per block (untraced run; a block runs
//                            before every round and after the last)
//   warmup N                 warmup records for the ckpt / LRU probes
//   mbserve PATH             daemon binary
//   scratch DIR              cache directories, span file
//   point KEY JSON           a simulation point, as an mbserve submit line
//   request CLASS KEY JSON   a request of the serve schedule
//   probe_request CLASS KEY JSON   a request of the traced mbserve probe
//
// Simulation workloads (point lines) call sim::runSimulation directly, one
// point after another on this thread; the serve workload (request lines)
// drives an `mbserve --stdio` child as one closed-loop client. A round is
// one pass over the points or one daemon session over the schedule; rounds
// repeat until the window is spent.
//
// Records printed: setup, hostref (one run of the host reference kernel,
// host_ref.hpp), op (one simulated point), req (one served request),
// round, daemon (one mbserve session's exit and peak RSS), peak (this
// process's RSS), layers (traced run), error. Digests are FNV-1a of
// the canonical report bytes (sim::runResultToJson, or the exact "result"
// bytes of an mbserve point event).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common.hpp"
#include "common/check.hpp"
#include "common/json_mini.hpp"
#include "host_ref.hpp"
#include "probes.hpp"
#include "serve/job_spec.hpp"
#include "serve_client.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"
#include "spans.hpp"

namespace {

using namespace mbbench;
using namespace mb;

struct Item {
  std::string cls;
  std::string key;
  std::string line;  // an mbserve submit line
};

struct Plan {
  double seconds = 10.0;
  bool trace = false;
  int setupReps = 5;
  std::int64_t warmup = 0;
  std::string mbserve;
  std::string scratch;
  std::vector<Item> points;
  std::vector<Item> requests;
  std::vector<Item> probeRequests;
};

[[noreturn]] void fail(const std::string& msg) {
  std::fprintf(stderr, "mbbench_harness: %s\n", msg.c_str());
  std::exit(2);
}

Plan readPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) fail("cannot read plan " + path);
  Plan p;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag.empty()) continue;
    auto rest = [&] {
      std::string r;
      std::getline(ss >> std::ws, r);
      return r;
    };
    if (tag == "seconds") {
      ss >> p.seconds;
    } else if (tag == "trace") {
      int t = 0;
      ss >> t;
      p.trace = t != 0;
    } else if (tag == "setup_reps") {
      ss >> p.setupReps;
    } else if (tag == "warmup") {
      ss >> p.warmup;
    } else if (tag == "mbserve") {
      p.mbserve = rest();
    } else if (tag == "scratch") {
      p.scratch = rest();
    } else if (tag == "point") {
      Item it{"sim", "", ""};
      ss >> it.key;
      it.line = rest();
      p.points.push_back(it);
    } else if (tag == "request" || tag == "probe_request") {
      Item it;
      ss >> it.cls >> it.key;
      it.line = rest();
      (tag == "request" ? p.requests : p.probeRequests).push_back(it);
    } else {
      fail("unknown plan line: " + line);
    }
  }
  if (p.points.empty() == p.requests.empty())
    fail("a plan needs point lines or request lines, not both");
  if (p.scratch.empty()) fail("plan has no scratch directory");
  return p;
}

/// Plan one submit line into its sweep points (the mbserve planner is the
/// single definition of what a point means).
std::vector<sim::SweepPoint> planLine(const std::string& line) {
  analysis::DiagnosticEngine diags;
  serve::JobSpec spec;
  serve::JobPlan plan;
  if (!serve::parseJobSpec(line, &spec, diags) || !serve::planJob(spec, &plan, diags))
    fail("cannot plan " + line);
  return plan.points;
}

std::string jobId(const std::string& line) {
  json::JVal v;
  json::JParser parser(line);
  if (!parser.parse(&v)) fail("bad request line " + line);
  const json::JVal* id = v.get("id");
  if (id == nullptr || id->t != json::JVal::T::Str) fail("request without id " + line);
  return id->s;
}

// ------------------------------------------------------------ simulations

struct SimPoint {
  std::string key;
  sim::SweepPoint point;
};

struct RoundTotals {
  double wall = 0.0;
  double cpu = 0.0;
  bool ok = true;
};

/// One simulated point, MB_CHECK trapped. Emits an op record; on success
/// stores the result in *out.
bool runPoint(const SimPoint& sp, int round, SpanRecorder& rec, std::int64_t request,
              sim::RunResult* out) {
  const double c0 = selfCpuSeconds();
  const double t0 = nowSeconds();
  std::string error;
  bool ok = true;
  {
    ScopedSpan span(rec, "sim.run", request);
    ScopedCheckTrap trap;
    try {
      *out = sim::runSimulation(sp.point.cfg, sp.point.workload, sp.point.opts);
    } catch (const CheckFailure& e) {
      ok = false;
      error = e.message;
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
  }
  const double wall = nowSeconds() - t0;
  const double cpu = selfCpuSeconds() - c0;
  JsonObj o;
  o.str("type", "op").integer("round", round).str("key", sp.key).boolean("ok", ok);
  o.num("wall_s", wall).num("cpu_s", cpu);
  if (ok) {
    o.integer("instrs", out->instructions)
        .str("digest", hex64(ckpt::fnv1a64(sim::runResultToJson(*out))))
        .num("ipc", out->systemIpc);
  } else {
    o.str("error", error);
  }
  emit(o);
  return ok;
}

/// One pass over the points. With `sampleHost`, the host reference kernel
/// also runs after every point, so its samples follow the host's speed
/// through the round and not only at its ends; its time is left out of the
/// round's totals.
RoundTotals simRound(const std::vector<SimPoint>& pts, int round, SpanRecorder& rec,
                     std::vector<ProbePoint>* results, bool sampleHost) {
  RoundTotals t;
  const double c0 = selfCpuSeconds();
  const double t0 = nowSeconds();
  double refWall = 0.0, refCpu = 0.0;
  {
    ScopedSpan span(rec, "bench.round", round);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      sim::RunResult r;
      const bool ok = runPoint(pts[i], round, rec, static_cast<std::int64_t>(i), &r);
      t.ok = t.ok && ok;
      if (ok && results != nullptr) results->push_back(ProbePoint{pts[i].point, r});
      if (sampleHost) {
        const double rc0 = selfCpuSeconds();
        const double rt0 = nowSeconds();
        const double secs = hostRefSeconds();
        refWall += nowSeconds() - rt0;
        refCpu += selfCpuSeconds() - rc0;
        emit(JsonObj().str("type", "hostref").num("seconds", secs));
      }
    }
  }
  t.wall = nowSeconds() - t0 - refWall;
  t.cpu = selfCpuSeconds() - c0 - refCpu;
  return t;
}

/// Set-up cost: every point built and run for one instruction. `pts` is in
/// key order: the seeded round order would make the allocator's reuse
/// pattern, and with it the set-up time, depend on the seed.
void simSetup(const std::vector<SimPoint>& pts, int reps) {
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = nowSeconds();
    for (const SimPoint& sp : pts) {
      sim::SystemConfig cfg = sp.point.cfg;
      cfg.core.maxInstrs = 1;
      ScopedCheckTrap trap;
      try {
        sim::runSimulation(cfg, sp.point.workload, sp.point.opts);
      } catch (const CheckFailure& e) {
        emit(JsonObj().str("type", "error").str("error", "setup: " + e.message));
      }
    }
    emit(JsonObj().str("type", "setup").num("seconds", nowSeconds() - t0));
  }
}

// ------------------------------------------------------------------ serve

std::vector<std::string> daemonArgs(const std::string& cacheDir) {
  // One job at a time on one sweep worker: the client is closed-loop, and
  // harness + daemon stay within the host's hardware threads.
  return {"--stdio", "--cache-dir=" + cacheDir, "--inflight=1", "--sweep-jobs=1"};
}

/// One daemon session over `schedule`, starting from an empty cache.
RoundTotals serveRound(const Plan& plan, const std::vector<Item>& schedule, int round,
                       SpanRecorder& rec) {
  RoundTotals t;
  const std::string cacheDir = plan.scratch + "/serve-cache-" + std::to_string(round);
  std::error_code ec;
  std::filesystem::remove_all(cacheDir, ec);
  ServeSession session;
  if (!session.start(plan.mbserve, daemonArgs(cacheDir))) {
    emit(JsonObj().str("type", "error").str("error", "cannot start mbserve"));
    t.ok = false;
    return t;
  }
  std::int64_t firstNs = -1, lastNs = 0;
  {
    ScopedSpan span(rec, "bench.round", round);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Item& it = schedule[i];
      const std::string id = jobId(it.line);
      const ServeReply r = session.submit(it.line, id);
      if (firstNs < 0) firstNs = r.submitNs;
      lastNs = r.doneNs;
      const auto req = static_cast<std::int64_t>(i);
      const std::int64_t accepted = r.acceptedNs > 0 ? r.acceptedNs : r.doneNs;
      const int parent = rec.add("serve.request", r.submitNs, r.doneNs, req);
      rec.add("serve.admit", r.submitNs, accepted, req, parent);
      rec.add("serve.exec", accepted, r.doneNs, req, parent);
      std::string pts = "[";
      for (const ServedPoint& p : r.points) {
        if (pts.size() > 1) pts += ",";
        pts += JsonObj()
                   .integer("index", p.index)
                   .boolean("ok", p.ok)
                   .boolean("cached", p.cached)
                   .str("digest", p.digest)
                   .integer("instrs", p.instrs)
                   .text();
      }
      pts += "]";
      JsonObj o;
      o.str("type", "req").integer("round", round).str("key", it.key).str("class", it.cls);
      o.boolean("ok", r.ok)
          .num("total_ms", static_cast<double>(r.doneNs - r.submitNs) * 1e-6)
          .num("admit_ms", static_cast<double>(accepted - r.submitNs) * 1e-6)
          .num("exec_ms", static_cast<double>(r.doneNs - accepted) * 1e-6)
          .integer("cached", r.cached)
          .integer("simulated", r.simulated)
          .raw("points", pts);
      if (!r.error.empty()) o.str("error", r.error);
      emit(o);
      t.ok = t.ok && r.ok;
    }
  }
  rusage ru{};
  const bool clean = session.finish(&ru);
  t.ok = t.ok && clean;
  t.wall = static_cast<double>(lastNs - firstNs) * 1e-9;
  t.cpu = cpuSeconds(ru);
  emit(JsonObj()
           .str("type", "daemon")
           .integer("round", round)
           .integer("rss_kib", ru.ru_maxrss)
           .boolean("clean_exit", clean));
  std::filesystem::remove_all(cacheDir, ec);
  return t;
}

/// Set-up cost: spawn the daemon on an empty cache and get a status reply.
void serveSetup(const Plan& plan, int reps) {
  for (int rep = 0; rep < reps; ++rep) {
    const std::string cacheDir = plan.scratch + "/serve-setup";
    std::error_code ec;
    std::filesystem::remove_all(cacheDir, ec);
    const double t0 = nowSeconds();
    ServeSession session;
    const bool started = session.start(plan.mbserve, daemonArgs(cacheDir));
    const std::string reply = started ? session.roundTrip("{\"verb\":\"status\"}") : "";
    const double secs = nowSeconds() - t0;
    rusage ru{};
    const bool clean = started && session.finish(&ru);
    std::filesystem::remove_all(cacheDir, ec);
    if (reply.find("\"event\":\"status\"") == std::string::npos || !clean) {
      emit(JsonObj().str("type", "error").str("error", "daemon set-up failed"));
      continue;
    }
    emit(JsonObj().str("type", "setup").num("seconds", secs));
  }
}

// ---------------------------------------------------------------- rounds

/// Run the harness, and the mbserve children that inherit its mask, on the
/// lowest CPU it may use. A served cache hit is a chain of thread handoffs
/// (client -> daemon main thread -> worker -> client); across CPUs each one
/// wakes another CPU, whose cost depends on what that CPU is doing. On one
/// CPU they are context switches. The simulations are single-threaded
/// either way.
void pinToOneCpu() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

void emitRound(int round, bool traced, const RoundTotals& t) {
  emit(JsonObj()
           .str("type", "round")
           .integer("round", round)
           .boolean("traced", traced)
           .num("wall_s", t.wall)
           .num("cpu_s", t.cpu)
           .boolean("ok", t.ok));
}

/// Rounds until the window is spent: stop when the next round would end
/// closer to the window's end if it were skipped.
template <typename RoundFn>
void measureWindow(double seconds, RoundFn&& runRound) {
  const double t0 = nowSeconds();
  int round = 0;
  for (;;) {
    const double r0 = nowSeconds();
    runRound(round++);
    const double last = nowSeconds() - r0;
    if (nowSeconds() - t0 + last / 2 >= seconds) break;
  }
}

/// The serve workload's simulated points, simulated directly (the sim
/// probe and the source of the results the serve library probe stores).
std::vector<SimPoint> servePoints(const std::vector<Item>& requests) {
  std::vector<SimPoint> out;
  std::map<std::pair<std::uint64_t, std::int64_t>, bool> seen;
  for (const Item& it : requests) {
    const auto planned = planLine(it.line);
    for (std::size_t i = 0; i < planned.size(); ++i) {
      const sim::SweepPoint& p = planned[i];
      const auto key = std::make_pair(sim::systemConfigHash(p.cfg, p.workload),
                                      p.opts.warmupRecords);
      if (seen[key]) continue;
      seen[key] = true;
      // Same key as the served point's digest: request key + point index.
      out.push_back(SimPoint{it.key + "#" + std::to_string(i), p});
    }
  }
  return out;
}

int runTraced(const Plan& plan, const std::vector<SimPoint>& pts, bool serve,
              const std::string& spansPath) {
  SpanRecorder off(false);
  SpanRecorder rec(true);
  LayerMetrics m;
  bool ok = true;
  std::vector<ProbePoint> results;

  // Tracing overhead: alternate untraced and traced rounds; the traced
  // rounds also give the sim / serve-client spans.
  std::vector<double> plain, traced;
  for (int pair = 0; pair < 2; ++pair) {
    for (const bool on : {false, true}) {
      SpanRecorder& r = on ? rec : off;
      const int round = pair * 2 + (on ? 1 : 0);
      std::vector<ProbePoint>* keep = (on && pair == 0 && !serve) ? &results : nullptr;
      const RoundTotals t = serve ? serveRound(plan, plan.requests, round, r)
                                  : simRound(pts, round, r, keep, false);
      emitRound(round, on, t);
      ok = ok && t.ok;
      (on ? traced : plain).push_back(t.wall);
    }
  }
  m["bench.trace_overhead_ms"] = (median(traced) - median(plain)) * 1e3;

  // The serve workload's points are simulated directly for the sim probe.
  if (serve) {
    ScopedSpan span(rec, "bench.sim_probe");
    for (std::size_t i = 0; i < pts.size(); ++i) {
      sim::RunResult r;
      if (runPoint(pts[i], -1, rec, static_cast<std::int64_t>(i), &r))
        results.push_back(ProbePoint{pts[i].point, r});
      else
        ok = false;
    }
  }
  std::uint64_t events = 0;
  for (const ProbePoint& p : results) events += p.result.eventsProcessed;
  // Traced rounds of a simulation workload each contain every point once;
  // the events counted above are one round's.
  const std::vector<double> runs = rec.durations("sim.run");
  double simSecs = 0.0;
  for (std::size_t i = 0; i < std::min(runs.size(), pts.size()); ++i) simSecs += runs[i];
  m["sim.events"] = static_cast<double>(events);
  m["sim.ns_per_event"] = events > 0 ? simSecs * 1e9 / static_cast<double>(events) : 0.0;

  {
    ScopedSpan span(rec, "bench.probes");
    const auto streams = probeTrace(results, rec, m);
    const auto dram = probeCpu(streams, rec, m);
    ok = probeMc(results, dram, rec, m) && ok;
    if (!results.empty()) probeCkpt(results.front(), plan.warmup, rec, m);

    std::vector<std::string> lines;
    if (serve) {
      for (const Item& it : plan.requests) lines.push_back(it.line);
    } else {
      // A user re-submitting the workload: first pass cold, second cached.
      for (int pass = 0; pass < 2; ++pass)
        for (const Item& it : plan.points) lines.push_back(it.line);
    }
    ok = probeServeLibrary(lines, results, plan.warmup, plan.scratch + "/probe-cache",
                           rec, m) &&
         ok;
    // Client-side admit/exec spans: the serve workload's traced rounds
    // already hold them; the simulation workloads run a short session.
    if (!serve && !plan.probeRequests.empty()) {
      const RoundTotals t = serveRound(plan, plan.probeRequests, 100, rec);
      ok = ok && t.ok;
    }
  }
  m["serve.admit_ms"] = median(rec.durations("serve.admit")) * 1e3;
  m["serve.exec_ms"] = median(rec.durations("serve.exec")) * 1e3;

  for (const auto& [layer, secs] : rec.layerSelfSeconds())
    if (layer != "bench") m[layer + ".self_ms"] = secs * 1e3;

  JsonObj metrics;
  for (const auto& [k, v] : m) metrics.num(k, v);
  emit(JsonObj().str("type", "layers").boolean("ok", ok).raw("metrics", metrics.text()));
  if (!rec.writeJsonl(spansPath)) fail("cannot write " + spansPath);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string planPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--plan=", 7) == 0)
      planPath = argv[i] + 7;
    else
      fail(std::string("unknown argument ") + argv[i]);
  }
  if (planPath.empty()) fail("usage: mbbench_harness --plan=FILE");
  const Plan plan = readPlan(planPath);
  const bool serve = !plan.requests.empty();
  std::filesystem::create_directories(plan.scratch);
  pinToOneCpu();

  std::vector<SimPoint> pts;
  if (serve) {
    pts = servePoints(plan.requests);
  } else {
    for (const Item& it : plan.points) {
      auto planned = planLine(it.line);
      if (planned.size() != 1) fail("point line must plan to one point: " + it.line);
      pts.push_back(SimPoint{it.key, planned.front()});
    }
  }

  if (plan.trace) return runTraced(plan, pts, serve, plan.scratch + "/spans.jsonl");

  // Set-up is timed in a block before every round and after the last, so
  // its samples see the host's speed over the whole window, as the rounds
  // do; one block at the start saw only the first fraction of a second.
  std::vector<SimPoint> byKey = pts;
  std::sort(byKey.begin(), byKey.end(),
            [](const SimPoint& a, const SimPoint& b) { return a.key < b.key; });
  const auto setupBlock = [&] {
    if (serve)
      serveSetup(plan, plan.setupReps);
    else
      simSetup(byKey, plan.setupReps);
    for (int rep = 0; rep < plan.setupReps; ++rep)
      emit(JsonObj().str("type", "hostref").num("seconds", hostRefSeconds()));
  };
  SpanRecorder off(false);
  measureWindow(plan.seconds, [&](int round) {
    setupBlock();
    emitRound(round, false, serve ? serveRound(plan, plan.requests, round, off)
                                  : simRound(pts, round, off, nullptr, true));
  });
  setupBlock();
  if (!serve) emit(JsonObj().str("type", "peak").integer("rss_kib", selfPeakRssKiB()));
  return 0;
}
