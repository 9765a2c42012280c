// MBCKPT1 container tests: serialization primitives, the snapshot frame,
// and the malformed-input matrix — every corruption mode must be rejected
// with its registered MB-CKP code (DESIGN.md §"Checkpoint & snapshot
// reuse"), and no byte flip anywhere in a valid snapshot may slip through.
#include "ckpt/snapshot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <unordered_map>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "snapshot_forge.hpp"
#include "temp_path.hpp"

namespace mb::ckpt {
namespace {

TEST(Serialize, WriterReaderRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.b(true);
  w.b(false);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-12345);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(1.0 / 3.0);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("hello");
  w.str("");

  Reader r(w.str());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  // Doubles must round-trip bitwise, not just approximately.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(1.0 / 3.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, ReaderUnderflowIsSticky) {
  Writer w;
  w.u32(7);
  Reader r(w.str());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.atEnd());
  EXPECT_EQ(r.u8(), 0u);  // every further read keeps returning zero
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, ReaderStringUnderflow) {
  Writer w;
  w.u32(100);  // claims a 100-byte string with no payload behind it
  Reader r(w.str());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, CountGuardRejectsHostileLength) {
  Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  Reader r(w.str());
  EXPECT_EQ(r.count(8), 0u);  // cannot possibly fit: fail, no allocation
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

TEST(Serialize, Fnv1a64IsStable) {
  // Pin the hash of the empty string: config/warmup hashes are persisted in
  // snapshot headers, so the function must never change across releases.
  EXPECT_EQ(fnv1a64(""), 1469598103934665603ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

TEST(Serialize, MapSortedIsOrderIndependentAndRoundTrips) {
  std::map<std::int64_t, int> ordered{{3, 30}, {1, 10}, {2, 20}};
  std::unordered_map<std::int64_t, int> hashed(ordered.begin(), ordered.end());
  Writer a;
  SaveArchive sa(a);
  sa.mapSorted(ordered, 12, [&](int& v) { sa.i32(v); });
  Writer b;
  SaveArchive sb(b);
  sb.mapSorted(hashed, 12, [&](int& v) { sb.i32(v); });
  EXPECT_EQ(a.str(), b.str());

  Reader back(a.str());
  LoadArchive la(back);
  std::map<std::int64_t, int> loaded{{7, 70}};  // replaced, not merged
  la.mapSorted(loaded, 12, [&](int& v) { la.i32(v); });
  EXPECT_TRUE(back.atEnd());
  EXPECT_EQ(loaded, ordered);

  Reader r(a.str());
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.i64(), 1);
  EXPECT_EQ(r.i32(), 10);
  EXPECT_EQ(r.i64(), 2);
  EXPECT_EQ(r.i32(), 20);
  EXPECT_EQ(r.i64(), 3);
  EXPECT_EQ(r.i32(), 30);
  EXPECT_TRUE(r.atEnd());
}

Snapshot sampleSnapshot() {
  Snapshot snap;
  snap.kind = SnapshotKind::FullRun;
  snap.configHash = 0x1122334455667788ull;
  snap.warmupKey = 0;
  snap.now = 123456789;
  snap.geometry = {1, 1, 8, 4, 4};
  snap.tool = "microbank test";
  snap.workload = "429.mcf";
  snap.addSection("TRACE", "trace-bytes");
  snap.addSection("HIER", std::string(1000, '\x5A'));
  snap.addSection("MC0", "");
  return snap;
}

/// Decode and return the sole diagnostic code (or "" when decode succeeds).
std::string decodeCode(const std::string& data) {
  analysis::DiagnosticEngine diags;
  const auto snap = decodeSnapshot(data, diags, "test");
  if (snap.has_value()) return "";
  EXPECT_FALSE(diags.diagnostics().empty());
  return diags.diagnostics().back().code;
}

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const Snapshot snap = sampleSnapshot();
  const std::string data = snap.encode();

  analysis::DiagnosticEngine diags;
  const auto back = decodeSnapshot(data, diags);
  ASSERT_TRUE(back.has_value()) << diags.renderText();
  EXPECT_EQ(back->kind, snap.kind);
  EXPECT_EQ(back->configHash, snap.configHash);
  EXPECT_EQ(back->warmupKey, snap.warmupKey);
  EXPECT_EQ(back->now, snap.now);
  EXPECT_EQ(back->geometry, snap.geometry);
  EXPECT_EQ(back->tool, snap.tool);
  EXPECT_EQ(back->workload, snap.workload);
  ASSERT_EQ(back->sections.size(), 3u);
  ASSERT_NE(back->section("HIER"), nullptr);
  EXPECT_EQ(back->section("HIER")->payload, std::string(1000, '\x5A'));
  EXPECT_EQ(back->section("MISSING"), nullptr);
  // And the re-encode is byte-identical (canonical form).
  EXPECT_EQ(back->encode(), data);
}

TEST(Snapshot, EmptySnapshotRoundTrips) {
  Snapshot snap;
  snap.kind = SnapshotKind::Warmup;
  snap.warmupKey = 42;
  analysis::DiagnosticEngine diags;
  const auto back = decodeSnapshot(snap.encode(), diags);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, SnapshotKind::Warmup);
  EXPECT_EQ(back->warmupKey, 42u);
  EXPECT_TRUE(back->sections.empty());
}

TEST(Snapshot, RejectsShortFrame) {
  EXPECT_EQ(decodeCode(""), "MB-CKP-006");
  EXPECT_EQ(decodeCode("MBCKPT1"), "MB-CKP-006");  // below magic + trailer
}

TEST(Snapshot, RejectsBadMagic) {
  std::string data = sampleSnapshot().encode();
  data[0] = 'X';
  EXPECT_EQ(decodeCode(data), "MB-CKP-002");
}

TEST(Snapshot, RejectsUnsupportedVersion) {
  std::string data = sampleSnapshot().encode();
  data[8] = static_cast<char>(kSnapshotVersion + 1);  // version u32 LSB
  EXPECT_EQ(decodeCode(data), "MB-CKP-003");
}

TEST(Snapshot, RejectsUnknownKind) {
  std::string data = sampleSnapshot().encode();
  data[12] = 7;  // kind u32 LSB: neither Warmup nor FullRun
  EXPECT_EQ(decodeCode(data), "MB-CKP-005");
}

TEST(Snapshot, RejectsFlippedSectionPayloadByte) {
  const Snapshot snap = sampleSnapshot();
  std::string data = snap.encode();
  // Flip a byte well inside the 1000-byte HIER payload; the per-section
  // CRC fires before the file trailer is consulted.
  const auto pos = data.find(std::string(100, '\x5A'));
  ASSERT_NE(pos, std::string::npos);
  data[pos + 50] ^= 0x01;
  EXPECT_EQ(decodeCode(data), "MB-CKP-007");
}

TEST(Snapshot, RejectsEachFlippedSectionCrcIndividually) {
  // Corrupt each section's *stored CRC field* (not its payload) in turn:
  // the per-section integrity check must name the damaged section, for all
  // payload shapes — short, large, and empty.
  const std::string data = sampleSnapshot().encode();
  for (const std::string name : {"TRACE", "HIER", "MC0"}) {
    std::string mutated = data;
    const auto pos = mutated.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    // Section layout: name bytes (u32 length precedes `pos`), u64 payload
    // length, then the u32 payload CRC.
    const std::size_t crcOff = pos + name.size() + 8;
    ASSERT_LT(crcOff + 4, mutated.size()) << name;
    mutated[crcOff] ^= 0x01;
    analysis::DiagnosticEngine diags;
    EXPECT_FALSE(decodeSnapshot(mutated, diags, "crc-flip").has_value()) << name;
    ASSERT_FALSE(diags.diagnostics().empty()) << name;
    const analysis::Diagnostic& d = diags.diagnostics().back();
    EXPECT_EQ(d.code, "MB-CKP-007") << name;
    bool named = false;
    for (const auto& [k, v] : d.context)
      if (k == "section" && v == name) named = true;
    EXPECT_TRUE(named) << name << ": diagnostic must name the section";
  }
}

TEST(Snapshot, ReportsTruncationMidSection) {
  // Cut the frame inside the HIER payload: the reader must report the
  // truncated *section* by name (MB-CKP-006), not a generic CRC failure —
  // the 1000-byte payload length survives but its bytes do not.
  const std::string data = sampleSnapshot().encode();
  const auto pos = data.find(std::string(100, '\x5A'));
  ASSERT_NE(pos, std::string::npos);
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(decodeSnapshot(data.substr(0, pos + 100), diags, "cut").has_value());
  ASSERT_FALSE(diags.diagnostics().empty());
  const analysis::Diagnostic& d = diags.diagnostics().back();
  EXPECT_EQ(d.code, "MB-CKP-006");
  bool named = false;
  for (const auto& [k, v] : d.context)
    if (k == "section" && v == "HIER") named = true;
  EXPECT_TRUE(named);
}

TEST(Snapshot, RejectsFlippedHeaderByte) {
  std::string data = sampleSnapshot().encode();
  // Corrupt the tool string: sections still parse, so the file trailer is
  // the check that catches it.
  const auto pos = data.find("microbank test");
  ASSERT_NE(pos, std::string::npos);
  data[pos] ^= 0x01;
  EXPECT_EQ(decodeCode(data), "MB-CKP-008");
}

TEST(Snapshot, RejectsTruncation) {
  const std::string data = sampleSnapshot().encode();
  for (const std::size_t keep : {data.size() - 1, data.size() - 5,
                                 data.size() / 2, std::size_t{20}}) {
    const std::string code = decodeCode(data.substr(0, keep));
    EXPECT_FALSE(code.empty()) << "truncation to " << keep << " accepted";
  }
}

TEST(Snapshot, RejectsTrailingBytes) {
  // Inject bytes between the last section and the trailer, with the file
  // CRC recomputed so only the framing check can object.
  std::string body = sampleSnapshot().encode();
  body.resize(body.size() - 4);  // drop the old trailer
  body += "extra";
  Writer w;
  w.u32(crc32(body));
  EXPECT_EQ(decodeCode(body + w.str()), "MB-CKP-011");
}

TEST(Snapshot, EveryByteFlipIsRejected) {
  // Property: no single-byte corruption anywhere in the frame may decode.
  const std::string data = sampleSnapshot().encode();
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    analysis::DiagnosticEngine diags;
    EXPECT_FALSE(decodeSnapshot(mutated, diags, "flip").has_value())
        << "flip at byte " << i << " accepted";
  }
}

TEST(Snapshot, ReadFileReportsMissing) {
  analysis::DiagnosticEngine diags;
  EXPECT_FALSE(readSnapshotFile("/nonexistent/ckpt.mbk", diags).has_value());
  ASSERT_FALSE(diags.diagnostics().empty());
  EXPECT_EQ(diags.diagnostics().back().code, "MB-CKP-001");
}

TEST(Snapshot, WriteReadFileRoundTrip) {
  const Snapshot snap = sampleSnapshot();
  const std::string path = testTempPath("mb_snapshot_rt.mbk");
  analysis::DiagnosticEngine diags;
  ASSERT_TRUE(writeSnapshotFile(snap, path, diags)) << diags.renderText();
  const auto back = readSnapshotFile(path, diags);
  ASSERT_TRUE(back.has_value()) << diags.renderText();
  EXPECT_EQ(back->encode(), snap.encode());
  std::remove(path.c_str());
}

// ---- Forged HIER records -------------------------------------------------
// A snapshot whose container is intact (encode() recomputes every CRC) but
// whose HIER payload holds a value no writer produces must fail the restore
// with MB-CKP-012, never reach an internal check: a cache tag at or above
// the geometry's tag range (1 << 63 is also the tag array's valid bit),
// the line tables' empty-slot key (all ones) as a directory or
// pending-fill key, and a repeated directory key, which the loader rejects
// rather than keeping the first copy.

/// Byte offsets in a HIER payload, found by walking its layout: the caches
/// (u64 count, then per cache a u64 way count, 18 bytes per way and a u64
/// LRU counter, for the L1s and then the L2s), the directory (u64 count,
/// 16-byte records led by the i64 key) and the pending fills (u64 count,
/// records led by the i64 key).
struct HierOffsets {
  std::size_t firstTag = 0;
  std::size_t directory = 0;
  std::uint64_t dirEntries = 0;
  std::size_t pending = 0;
  std::uint64_t pendingEntries = 0;
};

HierOffsets hierOffsets(const std::string& p) {
  HierOffsets o;
  std::size_t at = 0;
  for (int level = 0; level < 2; ++level) {
    const std::uint64_t caches = readU64At(p, at);
    at += 8;
    for (std::uint64_t c = 0; c < caches; ++c) {
      if (level == 0 && c == 0) o.firstTag = at + 8;
      at += 8 + 18 * readU64At(p, at) + 8;
    }
  }
  o.directory = at;
  o.dirEntries = readU64At(p, at);
  at += 8 + 16 * o.dirEntries;
  o.pending = at;
  o.pendingEntries = readU64At(p, at);
  return o;
}

class ForgedHier : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = sim::shippedPresets().front().cfg;
    cfg_.core.maxInstrs = 15000;
    path_ = testTempPath("mb_snapshot_forged_hier.mbk");
    const sim::RunResult cold = sim::runSimulation(cfg_, workload_);
    sim::RunOptions save;
    save.checkpointAt = cold.elapsed / 2;  // mid-run: fills are in flight
    save.checkpointPath = path_;
    (void)sim::runSimulation(cfg_, workload_, save);
    analysis::DiagnosticEngine diags;
    auto snap = readSnapshotFile(path_, diags);
    ASSERT_TRUE(snap.has_value()) << diags.renderText();
    snap_ = std::move(*snap);
    ASSERT_NE(hier(), nullptr);
    at_ = hierOffsets(hier()->payload);
    ASSERT_GE(at_.dirEntries, 2u);
    ASSERT_GE(at_.pendingEntries, 1u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  SnapshotSection* hier() {
    for (auto& sec : snap_.sections)
      if (sec.name == "HIER") return &sec;
    return nullptr;
  }

  /// Restore from the snapshot with the u64 at `at` of its HIER payload set
  /// to `value`; returns the trapped failure message ("" on success).
  std::string restoreWith(std::size_t at, std::uint64_t value) {
    Snapshot forged = snap_;
    for (auto& sec : forged.sections) {
      if (sec.name == "HIER") {
        EXPECT_TRUE(forgeU64At(sec.payload, at, value));
      }
    }
    analysis::DiagnosticEngine diags;
    EXPECT_TRUE(writeSnapshotFile(forged, path_, diags)) << diags.renderText();
    ScopedCheckTrap trap;
    try {
      sim::RunOptions load;
      load.restorePath = path_;
      (void)sim::runSimulation(cfg_, workload_, load);
    } catch (const CheckFailure& f) {
      return f.message;
    }
    return "";
  }

  sim::SystemConfig cfg_;
  const sim::WorkloadSpec workload_ = sim::WorkloadSpec::spec("429.mcf");
  std::string path_;
  Snapshot snap_;
  HierOffsets at_;
};

TEST_F(ForgedHier, UnforgedRecordsRestore) {
  const std::string& p = hier()->payload;
  EXPECT_EQ(restoreWith(at_.firstTag, readU64At(p, at_.firstTag)), "");
}

TEST_F(ForgedHier, RejectsACacheTagOnTheValidBit) {
  const std::string msg = restoreWith(at_.firstTag, std::uint64_t{1} << 63);
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

TEST_F(ForgedHier, RejectsTheEmptyKeyAsADirectoryKey) {
  const std::string msg = restoreWith(at_.directory + 8, ~std::uint64_t{0});
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

TEST_F(ForgedHier, RejectsARepeatedDirectoryKey) {
  const std::uint64_t firstKey = readU64At(hier()->payload, at_.directory + 8);
  const std::string msg = restoreWith(at_.directory + 8 + 16, firstKey);
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

TEST_F(ForgedHier, RejectsTheEmptyKeyAsAPendingFillKey) {
  const std::string msg = restoreWith(at_.pending + 8, ~std::uint64_t{0});
  EXPECT_NE(msg.find("MB-CKP-012"), std::string::npos) << msg;
}

}  // namespace
}  // namespace mb::ckpt
