// google-benchmark microbenchmarks for the simulator's hot paths: address
// decomposition, cache lookup, DRAM command commit, trace generation, and a
// full small simulation as the end-to-end cost yardstick (which carries the
// memory controller's arbitration).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "core/address_map.hpp"
#include "cpu/cache.hpp"
#include "mc/controller.hpp"
#include "sim/experiment.hpp"
#include "trace/generator.hpp"

namespace {

using namespace mb;

dram::Geometry benchGeometry() {
  dram::Geometry g;
  g.channels = 16;
  g.ranksPerChannel = 8;
  g.banksPerRank = 8;
  g.ubank = {2, 8};
  return g;
}

void BM_AddressDecompose(benchmark::State& state) {
  const auto g = benchGeometry();
  const auto map = core::AddressMap::pageInterleaved(g);
  Rng rng(1);
  std::vector<std::uint64_t> addrs(1024);
  for (auto& a : addrs) a = rng.nextU64() & ((1ull << 40) - 64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.decompose(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_AddressDecompose);

void BM_AddressRoundTrip(benchmark::State& state) {
  const auto g = benchGeometry();
  const auto map = core::AddressMap::pageInterleaved(g);
  std::uint64_t a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.compose(map.decompose(a)));
    a += 4096;
  }
}
BENCHMARK(BM_AddressRoundTrip);

void BM_CacheLookupHit(benchmark::State& state) {
  cpu::Cache cache(2 * kMiB, 16);
  for (std::uint64_t i = 0; i < 1024; ++i)
    cache.insert(i * 64, cpu::LineState::Shared);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup((i++ & 1023) * 64));
  }
}
BENCHMARK(BM_CacheLookupHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  cpu::Cache cache(16 * kKiB, 4);
  std::uint64_t a = 0;
  for (auto _ : state) {
    if (cache.peek(a) == nullptr) {
      benchmark::DoNotOptimize(cache.insert(a, cpu::LineState::Modified));
    }
    a += 64 * 64;  // new set walk, forces evictions
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_DramCommandCycle(benchmark::State& state) {
  const auto g = benchGeometry();
  mc::ChannelState ch(g, dram::TimingParams::tsi());
  ch.refreshEnabled = false;
  core::DramAddress da;
  Tick t = 0;
  std::int64_t row = 0;
  for (auto _ : state) {
    da.row = ++row;
    t = ch.earliestAct(da, t);
    ch.commitAct(da, t);
    const Tick cas = ch.earliestCas(da, false, t);
    ch.commitCas(da, false, cas);
    const Tick pre = ch.earliestPre(da, cas);
    ch.commitPre(da, pre);
    t = pre;
  }
}
BENCHMARK(BM_DramCommandCycle);

void BM_TraceGeneration(benchmark::State& state) {
  trace::SyntheticParams p = trace::specProfile("429.mcf").params;
  trace::SyntheticSource src(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.next());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_EndToEndSmallRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::SystemConfig cfg = sim::tsiBaselineConfig();
    cfg.core.maxInstrs = 20000;
    const auto r = sim::runSimulation(cfg, sim::WorkloadSpec::spec("450.soplex"));
    benchmark::DoNotOptimize(r.systemIpc);
  }
}
BENCHMARK(BM_EndToEndSmallRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
