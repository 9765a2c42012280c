// The serving layer's core invariant, gated per shipped preset: a report
// served from the memo cache is BYTE-identical to a cold simulation of the
// same point. Cold bytes come straight from runSimulation+runResultToJson
// (no serve code involved); cached bytes go through the full store →
// on-disk entry → lookup path. Any divergence — a lossy double format, a
// missed key component, header bleed into the payload — fails here before
// it can ship.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/version.hpp"
#include "serve/result_cache.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/sweep.hpp"
#include "temp_path.hpp"

namespace mb::serve {
namespace {

constexpr std::int64_t kInstrs = 8000;

TEST(ServeIdentity, CachedBytesEqualColdRunForEveryShippedPreset) {
  const std::string dir = testTempPath("mb_serve_identity_cache");
  ResultCache cache(dir);
  ASSERT_TRUE(cache.ok());
  cache.flush();  // stale entries from a previous test run
  const auto wl = sim::WorkloadSpec::spec("429.mcf");
  const std::string version = versionString();

  for (const auto& preset : sim::shippedPresets()) {
    sim::SystemConfig cfg = preset.cfg;
    cfg.core.maxInstrs = kInstrs;
    const std::uint64_t key = ResultCache::resultKey(
        sim::systemConfigHash(cfg, wl), wl.name, cfg.seed, 0, version);

    // Cold run, serialized exactly as the daemon would store it.
    const std::string cold = sim::runResultToJson(sim::runSimulation(cfg, wl));
    if (const auto prior = cache.lookup(key)) {
      // Two presets that resolve to the same configuration (tsi-baseline
      // and tsi-ubank(1,1)) legitimately share a memo entry — and then the
      // shared bytes must match this preset's cold run too.
      EXPECT_EQ(*prior, cold) << preset.name << ": memo key collision with a "
                              << "DIFFERENT report — key derivation is broken";
      continue;
    }
    ASSERT_TRUE(cache.store(key, cold)) << preset.name;

    const auto served = cache.lookup(key);
    ASSERT_TRUE(served.has_value()) << preset.name;
    EXPECT_EQ(*served, cold) << preset.name << ": cached bytes diverge from cold";

    // A second simulation must also match — the cold run itself is
    // deterministic, otherwise "cache hit" and "re-run" are different APIs.
    EXPECT_EQ(sim::runResultToJson(sim::runSimulation(cfg, wl)), cold)
        << preset.name << ": simulation is not deterministic";
  }
  cache.flush();
}

TEST(ServeIdentity, WarmupServedFromBufferMatchesDirectWarmup) {
  // The daemon serves warmup state from LRU-held snapshot bytes via
  // RunOptions::warmupRestoreBuf; a point run that way must be
  // byte-identical to one that replays the warmup itself.
  sim::SystemConfig cfg = sim::tsiBaselineConfig();
  cfg.core.maxInstrs = kInstrs;
  const auto wl = sim::WorkloadSpec::spec("429.mcf");
  constexpr std::int64_t kWarm = 2000;

  sim::RunOptions direct;
  direct.warmupRecords = kWarm;
  const std::string cold =
      sim::runResultToJson(sim::runSimulation(cfg, wl, direct));

  const std::string snapshot = sim::captureWarmupSnapshot(cfg, wl, kWarm);
  sim::RunOptions fromBuf;
  fromBuf.warmupRecords = kWarm;
  fromBuf.warmupRestoreBuf = &snapshot;
  const std::string warm =
      sim::runResultToJson(sim::runSimulation(cfg, wl, fromBuf));
  EXPECT_EQ(warm, cold);
}

}  // namespace
}  // namespace mb::serve
