// Per-layer probes for the traced benchmark run.
//
// Each probe calls one layer's public functions directly, fed with inputs
// shaped like the workload being measured (its configurations, trace
// sources, address stream and queue occupancy), and records a span around
// every call batch. The numbers land in a flat name -> value map that
// run.py reports as the per-layer metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "spans.hpp"

namespace mbbench {

using LayerMetrics = std::map<std::string, double>;

/// One simulated point of the workload with its measured result.
struct ProbePoint {
  mb::sim::SweepPoint point;
  mb::sim::RunResult result;
};

/// trace: draw 2M records (all cores together) from sources built like the
/// run's, one batch span per source. Returns the drawn records per distinct
/// trace shape so the cpu probe replays exactly the same stream.
struct DrawnStream {
  mb::sim::SystemConfig cfg;
  mb::sim::WorkloadSpec workload;
  std::vector<std::vector<std::pair<std::uint64_t, bool>>> perCore;  // (addr, write)
};
std::vector<DrawnStream> probeTrace(const std::vector<ProbePoint>& points,
                                    SpanRecorder& rec, LayerMetrics& out);

/// cpu: replay each stream through a functional-mode MemoryHierarchy via
/// warmAccess. Returns the DRAM-bound subset of the stream (accesses whose
/// warmAccess raised the hierarchy's DRAM read or write count).
std::vector<std::pair<std::uint64_t, bool>> probeCpu(const std::vector<DrawnStream>& streams,
                                                     SpanRecorder& rec, LayerMetrics& out);

/// mc: one MemoryController on its own EventQueue per distinct memory
/// configuration of the workload, fed 200k requests (all configurations
/// together) of the DRAM-bound stream while holding the point's measured
/// average queue occupancy. RunResult-level memory counters of the
/// workload's points are reported alongside.
bool probeMc(const std::vector<ProbePoint>& points,
             const std::vector<std::pair<std::uint64_t, bool>>& dramStream,
             SpanRecorder& rec, LayerMetrics& out);

/// ckpt: captureWarmupSnapshot of the workload's first point, three times.
void probeCkpt(const ProbePoint& point, std::int64_t warmupRecords, SpanRecorder& rec,
               LayerMetrics& out);

/// serve (library side): parseJobSpec + planJob over the workload's request
/// lines, ResultCache lookup/store over their planned points in request
/// order (results from `points`), and SnapshotLru::acquire for every point
/// that carries a warmup (`defaultWarmup` stands in for points without).
bool probeServeLibrary(const std::vector<std::string>& requestLines,
                       const std::vector<ProbePoint>& points,
                       std::int64_t defaultWarmup, const std::string& cacheDir,
                       SpanRecorder& rec, LayerMetrics& out);

}  // namespace mbbench
