#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <tuple>

#include "common.hpp"
#include "common/event_queue.hpp"
#include "common/version.hpp"
#include "core/address_map.hpp"
#include "cpu/hierarchy.hpp"
#include "interface/phy.hpp"
#include "mc/controller.hpp"
#include "serve/job_spec.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_lru.hpp"
#include "sim/journal.hpp"
#include "trace/generator.hpp"
#include "trace/profiles.hpp"

namespace mbbench {

using namespace mb;

namespace {

constexpr long kTraceRecords = 2000000;
constexpr long kMcRequests = 200000;
constexpr int kCaptureReps = 3;

bool singleCopy(const sim::WorkloadSpec& wl) {
  return wl.kind == sim::WorkloadSpec::Kind::SingleSpec ||
         wl.kind == sim::WorkloadSpec::Kind::TraceFile;
}

/// The hierarchy a run of (cfg, workload) builds (sim/system.cpp does the
/// same resolution): single-program workloads share one specCopies-core
/// cluster, and the memory link latency comes from the PHY.
cpu::HierarchyConfig hierarchyFor(const sim::SystemConfig& cfg,
                                  const sim::WorkloadSpec& wl) {
  cpu::HierarchyConfig h = cfg.hier;
  if (singleCopy(wl)) {
    h.numCores = cfg.specCopies;
    h.coresPerCluster = cfg.specCopies;
  }
  h.memLinkLatency = interface::PhyModel::make(cfg.phy).linkLatency;
  return h;
}

/// Trace sources placed and seeded the way sim/system.cpp places them.
std::vector<std::unique_ptr<trace::TraceSource>> sourcesFor(
    const sim::SystemConfig& cfg, const sim::WorkloadSpec& wl) {
  const int cores = hierarchyFor(cfg, wl).numCores;
  std::vector<std::unique_ptr<trace::TraceSource>> out;
  std::vector<std::string> apps;
  switch (wl.kind) {
    case sim::WorkloadSpec::Kind::SingleSpec:
      apps.assign(static_cast<std::size_t>(cores), wl.name);
      break;
    case sim::WorkloadSpec::Kind::Mix:
      apps = trace::mixWorkload(wl.name, cores);
      break;
    case sim::WorkloadSpec::Kind::Multithreaded: {
      trace::MtParams mt;
      mt.kind = wl.mtKind;
      mt.numThreads = cores;
      mt.seed = cfg.seed;
      for (int c = 0; c < cores; ++c) out.push_back(trace::makeMtSource(mt, c));
      break;
    }
    case sim::WorkloadSpec::Kind::TraceFile:
      break;  // recorded traces are not generated; nothing to probe
  }
  for (int c = 0; c < static_cast<int>(apps.size()); ++c) {
    trace::SyntheticParams p = trace::specProfile(apps[static_cast<std::size_t>(c)]).params;
    p.baseAddr = static_cast<std::uint64_t>(c) << 33;
    p.seed = cfg.seed * 1000003 + static_cast<std::uint64_t>(c);
    out.push_back(std::make_unique<trace::SyntheticSource>(p));
  }
  return out;
}

/// The memory side of one channel set, as sim/system.cpp builds it.
struct MemorySide {
  dram::Geometry geom;
  std::unique_ptr<core::AddressMap> map;
  mc::ControllerConfig mcCfg;
  std::vector<std::unique_ptr<EventQueue>> queues;
  std::vector<std::unique_ptr<mc::MemoryController>> mcs;
};

MemorySide buildMemorySide(const sim::SystemConfig& cfg, const sim::WorkloadSpec& wl,
                           int controllers) {
  MemorySide m;
  m.geom = sim::geometryFor(cfg, sim::resolvedChannels(cfg, wl));
  m.map = std::make_unique<core::AddressMap>(m.geom, sim::resolvedBaseBit(cfg, m.geom),
                                             cfg.xorBankHash);
  m.mcCfg.queueDepth = cfg.queueDepth;
  m.mcCfg.scheduler = cfg.scheduler;
  m.mcCfg.pagePolicy = cfg.pagePolicy;
  m.mcCfg.refreshEnabled = cfg.refresh;
  m.mcCfg.perBankRefresh = cfg.perBankRefresh;
  const auto phy = interface::PhyModel::make(cfg.phy);
  const dram::TimingParams timing = sim::effectiveTiming(cfg);
  for (int ch = 0; ch < controllers; ++ch) {
    m.queues.push_back(std::make_unique<EventQueue>());
    m.mcs.push_back(std::make_unique<mc::MemoryController>(
        ch, m.geom, timing, phy.energy, *m.map, m.mcCfg, *m.queues.back()));
  }
  return m;
}

/// Identity of a point's memory-side configuration (instruction slice and
/// seed do not change what one controller does per request).
std::uint64_t memoryConfigKey(const ProbePoint& p) {
  sim::SystemConfig cfg = p.point.cfg;
  cfg.core.maxInstrs = 0;
  cfg.seed = 0;
  return sim::systemConfigHash(cfg, p.point.workload);
}

}  // namespace

std::vector<DrawnStream> probeTrace(const std::vector<ProbePoint>& points,
                                    SpanRecorder& rec, LayerMetrics& out) {
  // One stream per distinct trace shape: memory-side knobs do not change
  // what the cores generate.
  std::vector<DrawnStream> streams;
  std::set<std::tuple<std::string, std::uint64_t, int>> seen;
  for (const ProbePoint& p : points) {
    const auto& cfg = p.point.cfg;
    const auto& wl = p.point.workload;
    if (wl.kind == sim::WorkloadSpec::Kind::TraceFile) continue;
    const auto key = std::make_tuple(wl.name, cfg.seed, hierarchyFor(cfg, wl).numCores);
    if (!seen.insert(key).second) continue;
    streams.push_back(DrawnStream{cfg, wl, {}});
  }
  long records = 0;
  double seconds = 0.0;
  for (DrawnStream& s : streams) {
    auto sources = sourcesFor(s.cfg, s.workload);
    const long perCore = kTraceRecords /
                         static_cast<long>(streams.size() * sources.size());
    s.perCore.resize(sources.size());
    for (std::size_t c = 0; c < sources.size(); ++c) {
      auto& dst = s.perCore[c];
      dst.reserve(static_cast<std::size_t>(perCore));
      const std::int64_t t0 = rec.nowNs();
      {
        ScopedSpan span(rec, "trace.next", static_cast<std::int64_t>(c));
        for (long i = 0; i < perCore; ++i) {
          const trace::Record r = sources[c]->next();
          dst.emplace_back(r.addr, r.write);
        }
      }
      seconds += static_cast<double>(rec.nowNs() - t0) * 1e-9;
      records += perCore;
    }
  }
  out["trace.records"] = static_cast<double>(records);
  out["trace.ns_per_record"] = records > 0 ? seconds * 1e9 / static_cast<double>(records) : 0.0;
  return streams;
}

std::vector<std::pair<std::uint64_t, bool>> probeCpu(const std::vector<DrawnStream>& streams,
                                                     SpanRecorder& rec, LayerMetrics& out) {
  std::vector<std::pair<std::uint64_t, bool>> dram;
  cpu::HierarchyStats total;
  double seconds = 0.0;
  for (const DrawnStream& s : streams) {
    if (s.perCore.empty()) continue;
    // The hierarchy constructor wants the channel controllers; functional
    // mode never reaches them.
    MemorySide mem = buildMemorySide(s.cfg, s.workload,
                                     sim::resolvedChannels(s.cfg, s.workload));
    EventQueue eq;
    cpu::MemoryHierarchy hier(hierarchyFor(s.cfg, s.workload), mem.mcs, eq);
    hier.setFunctionalMode(true);
    const std::size_t n = s.perCore.front().size();
    const std::int64_t t0 = rec.nowNs();
    {
      ScopedSpan span(rec, "cpu.warm_access");
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < s.perCore.size(); ++c) {
          const auto [addr, write] = s.perCore[c][i];
          const std::int64_t reads = hier.stats().dramReads;
          const std::int64_t writes = hier.stats().dramWrites;
          hier.warmAccess(static_cast<CoreId>(c), addr, write);
          // Demand fills and prefetches leave as reads of consecutive
          // lines; writebacks are attributed to the triggering line.
          const std::uint64_t line = addr & ~std::uint64_t{63};
          for (std::int64_t k = 0; k < hier.stats().dramReads - reads; ++k)
            dram.emplace_back(line + static_cast<std::uint64_t>(k) * 64, false);
          for (std::int64_t k = 0; k < hier.stats().dramWrites - writes; ++k)
            dram.emplace_back(line, true);
        }
      }
    }
    seconds += static_cast<double>(rec.nowNs() - t0) * 1e-9;
    const cpu::HierarchyStats& st = hier.stats();
    total.accesses += st.accesses;
    total.l1Hits += st.l1Hits;
    total.c2cTransfers += st.c2cTransfers;
    total.invalidations += st.invalidations;
    total.prefetchIssued += st.prefetchIssued;
    total.prefetchUseful += st.prefetchUseful;
  }
  out["cpu.accesses"] = static_cast<double>(total.accesses);
  out["cpu.ns_per_access"] =
      total.accesses > 0 ? seconds * 1e9 / static_cast<double>(total.accesses) : 0.0;
  out["cpu.l1_hit_rate"] = total.l1HitRate();
  out["cpu.c2c_transfers"] = static_cast<double>(total.c2cTransfers);
  out["cpu.invalidations"] = static_cast<double>(total.invalidations);
  out["cpu.prefetch_useful_ratio"] =
      total.prefetchIssued > 0 ? static_cast<double>(total.prefetchUseful) /
                                     static_cast<double>(total.prefetchIssued)
                               : 0.0;
  return dram;
}

bool probeMc(const std::vector<ProbePoint>& points,
             const std::vector<std::pair<std::uint64_t, bool>>& dramStream,
             SpanRecorder& rec, LayerMetrics& out) {
  // RunResult-level counters of the workload's own points.
  double reads = 0, writes = 0, acts = 0, rowHit = 0, occ = 0;
  for (const ProbePoint& p : points) {
    reads += static_cast<double>(p.result.dramReads);
    writes += static_cast<double>(p.result.dramWrites);
    acts += static_cast<double>(p.result.activations);
    rowHit += p.result.rowHitRate;
    occ += p.result.avgQueueOccupancy;
  }
  const double n = points.empty() ? 1.0 : static_cast<double>(points.size());
  out["mc.dram_reads"] = reads;
  out["mc.dram_writes"] = writes;
  out["mc.activations"] = acts;
  out["mc.row_hit_rate"] = rowHit / n;
  out["mc.queue_occupancy"] = occ / n;

  // Distinct memory configurations, each driven at the mean occupancy its
  // points measured.
  std::vector<std::pair<const ProbePoint*, double>> configs;
  std::map<std::uint64_t, std::pair<std::size_t, int>> index;  // key -> (slot, count)
  for (const ProbePoint& p : points) {
    const std::uint64_t key = memoryConfigKey(p);
    auto it = index.find(key);
    if (it == index.end()) {
      index[key] = {configs.size(), 1};
      configs.emplace_back(&p, p.result.avgQueueOccupancy);
    } else {
      configs[it->second.first].second += p.result.avgQueueOccupancy;
      ++it->second.second;
    }
  }
  for (const auto& [key, slot] : index) configs[slot.first].second /= slot.second;

  long requests = 0;
  double seconds = 0.0;
  bool ok = true;
  const long perConfig =
      configs.empty() ? 0 : kMcRequests / static_cast<long>(configs.size());
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const ProbePoint& p = *configs[ci].first;
    const int target = std::max(1, static_cast<int>(std::lround(configs[ci].second)));
    MemorySide mem = buildMemorySide(p.point.cfg, p.point.workload, 1);
    mc::MemoryController& ctl = *mem.mcs.front();
    EventQueue& eq = *mem.queues.front();
    // The controller models channel 0: keep the stream's channel-0 share.
    std::vector<std::pair<std::uint64_t, bool>> stream;
    for (const auto& r : dramStream)
      if (mem.map->decompose(r.first).channel == 0) stream.push_back(r);
    if (stream.empty()) continue;

    long completed = 0;
    const std::int64_t t0 = rec.nowNs();
    {
      ScopedSpan span(rec, "mc.drive", static_cast<std::int64_t>(ci));
      // Step the queue until `done()`; a few million events without the
      // controller retiring a request means it is stuck.
      auto stepUntil = [&](auto done) {
        std::uint64_t stalled = 0;
        int last = ctl.outstanding();
        while (!done() && eq.step()) {
          if (ctl.outstanding() < last) {
            last = ctl.outstanding();
            stalled = 0;
          } else if (++stalled > 4000000) {
            ok = false;
            return;
          }
        }
      };
      // Start each configuration at a different offset of the stream.
      std::size_t at = (ci * 7919) % stream.size();
      for (long i = 0; i < perConfig && ok; ++i) {
        stepUntil([&] { return ctl.outstanding() < target; });
        const auto [addr, write] = stream[at];
        at = (at + 1) % stream.size();
        mc::MemRequest req;
        req.addr = addr;
        req.write = write;
        // Reads carry a completion callback, as the hierarchy's do.
        if (!write) req.onComplete = [&completed](Tick) { ++completed; };
        ctl.enqueue(std::move(req));
        ++requests;
      }
      if (ok) stepUntil([&] { return ctl.outstanding() == 0; });
    }
    seconds += static_cast<double>(rec.nowNs() - t0) * 1e-9;
    if (!ok) std::fprintf(stderr, "mbbench: mc probe made no progress\n");
  }
  out["mc.requests"] = static_cast<double>(requests);
  out["mc.ns_per_request"] =
      requests > 0 ? seconds * 1e9 / static_cast<double>(requests) : 0.0;
  return ok;
}

void probeCkpt(const ProbePoint& point, std::int64_t warmupRecords, SpanRecorder& rec,
               LayerMetrics& out) {
  std::vector<double> secs;
  std::size_t bytes = 0;
  for (int i = 0; i < kCaptureReps; ++i) {
    const std::int64_t t0 = rec.nowNs();
    {
      ScopedSpan span(rec, "ckpt.capture");
      bytes = sim::captureWarmupSnapshot(point.point.cfg, point.point.workload,
                                         warmupRecords)
                  .size();
    }
    secs.push_back(static_cast<double>(rec.nowNs() - t0) * 1e-9);
  }
  out["ckpt.capture_s"] = median(secs);
  out["ckpt.snapshot_kib"] = static_cast<double>(bytes) / 1024.0;
}

bool probeServeLibrary(const std::vector<std::string>& requestLines,
                       const std::vector<ProbePoint>& points,
                       std::int64_t defaultWarmup, const std::string& cacheDir,
                       SpanRecorder& rec, LayerMetrics& out) {
  // Plan: parse + plan every line, cycling until there are enough samples
  // for a stable median.
  std::vector<serve::JobPlan> plans;
  std::vector<double> planSecs;
  const std::size_t calls = std::max<std::size_t>(200, requestLines.size());
  for (std::size_t i = 0; i < calls && !requestLines.empty(); ++i) {
    const std::string& line = requestLines[i % requestLines.size()];
    analysis::DiagnosticEngine diags;
    serve::JobSpec spec;
    serve::JobPlan plan;
    const std::int64_t t0 = rec.nowNs();
    bool ok;
    {
      ScopedSpan span(rec, "serve.plan", static_cast<std::int64_t>(i));
      ok = serve::parseJobSpec(line, &spec, diags) && serve::planJob(spec, &plan, diags);
    }
    planSecs.push_back(static_cast<double>(rec.nowNs() - t0) * 1e-9);
    if (!ok) {
      std::fprintf(stderr, "mbbench: serve probe cannot plan %s\n", line.c_str());
      return false;
    }
    if (i < requestLines.size()) plans.push_back(std::move(plan));
  }
  out["serve.plan_us"] = median(planSecs) * 1e6;

  // Result cache, in request order: lookup, and store on a miss.
  auto resultFor = [&](const sim::SweepPoint& sp) -> const sim::RunResult* {
    const std::uint64_t h = sim::systemConfigHash(sp.cfg, sp.workload);
    for (const ProbePoint& p : points)
      if (p.point.opts.warmupRecords == sp.opts.warmupRecords &&
          sim::systemConfigHash(p.point.cfg, p.point.workload) == h)
        return &p.result;
    return nullptr;
  };
  std::error_code ec;
  std::filesystem::remove_all(cacheDir, ec);
  bool ok = true;
  {
    serve::ResultCache cache(cacheDir);
    if (!cache.ok()) return false;
    const std::string version = versionString();
    std::vector<double> lookupSecs, storeSecs;
    std::int64_t lookups = 0, hits = 0;
    for (const serve::JobPlan& plan : plans) {
      for (const sim::SweepPoint& sp : plan.points) {
        const std::uint64_t key = serve::ResultCache::resultKey(
            sim::systemConfigHash(sp.cfg, sp.workload), plan.workloadName,
            sp.cfg.seed, sp.opts.warmupRecords, version);
        std::int64_t t0 = rec.nowNs();
        bool hit;
        {
          ScopedSpan span(rec, "serve.cache_lookup");
          hit = cache.lookup(key).has_value();
        }
        lookupSecs.push_back(static_cast<double>(rec.nowNs() - t0) * 1e-9);
        ++lookups;
        if (hit) {
          ++hits;
          continue;
        }
        const sim::RunResult* r = resultFor(sp);
        if (r == nullptr) {
          std::fprintf(stderr, "mbbench: serve probe has no result for %s\n",
                       sp.label.c_str());
          ok = false;
          continue;
        }
        const std::string bytes = sim::runResultToJson(*r);
        t0 = rec.nowNs();
        {
          ScopedSpan span(rec, "serve.cache_store");
          ok = cache.store(key, bytes) && ok;
        }
        storeSecs.push_back(static_cast<double>(rec.nowNs() - t0) * 1e-9);
      }
    }
    out["serve.cache_lookup_us"] = median(lookupSecs) * 1e6;
    out["serve.cache_store_us"] = median(storeSecs) * 1e6;
    out["serve.cache_hit_ratio"] =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    cache.flush();
  }
  std::filesystem::remove_all(cacheDir, ec);

  // Warmup-snapshot LRU, one acquire per warmed point.
  serve::SnapshotLru lru(std::size_t{256} << 20);
  for (const serve::JobPlan& plan : plans) {
    for (const sim::SweepPoint& sp : plan.points) {
      const std::int64_t warm =
          sp.opts.warmupRecords > 0 ? sp.opts.warmupRecords : defaultWarmup;
      if (warm <= 0) continue;
      ScopedSpan span(rec, "serve.lru_acquire");
      lru.acquire(sim::warmupKeyHash(sp.cfg, sp.workload, warm), [&] {
        ScopedSpan capture(rec, "ckpt.capture");
        return sim::captureWarmupSnapshot(sp.cfg, sp.workload, warm);
      });
    }
  }
  const auto ls = lru.stats();
  out["serve.lru_hit_ratio"] =
      ls.hits + ls.misses > 0
          ? static_cast<double>(ls.hits) / static_cast<double>(ls.hits + ls.misses)
          : 0.0;
  return ok;
}

}  // namespace mbbench
