#include "trace/trace_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/check.hpp"
#include "temp_path.hpp"

namespace mb::trace {
namespace {

std::string tmpPath(const char* tag) {
  return testTempPath(std::string("mbtrace_test_") + tag + ".mbt");
}

Record makeRecord(std::uint32_t gap, std::uint64_t addr, bool write, bool dep) {
  Record r;
  r.gapInstrs = gap;
  r.addr = addr;
  r.write = write;
  r.dependent = dep;
  return r;
}

TEST(TraceFile, RoundTripsRecords) {
  const auto path = tmpPath("roundtrip");
  {
    TraceFileWriter w(path);
    w.append(makeRecord(3, 0x1000, false, false));
    w.append(makeRecord(0, 0x2040, true, false));
    w.append(makeRecord(7, 0x3080, false, true));
    EXPECT_EQ(w.recordsWritten(), 3);
  }
  TraceFileSource src(path);
  EXPECT_EQ(src.recordCount(), 3);
  const auto a = src.next();
  EXPECT_EQ(a.gapInstrs, 3u);
  EXPECT_EQ(a.addr, 0x1000u);
  EXPECT_FALSE(a.write);
  EXPECT_FALSE(a.dependent);
  const auto b = src.next();
  EXPECT_TRUE(b.write);
  const auto c = src.next();
  EXPECT_TRUE(c.dependent);
  std::remove(path.c_str());
}

TEST(TraceFile, LoopsAtEndOfFile) {
  const auto path = tmpPath("loop");
  {
    TraceFileWriter w(path);
    w.append(makeRecord(1, 64, false, false));
    w.append(makeRecord(2, 128, false, false));
  }
  TraceFileSource src(path);
  EXPECT_EQ(src.next().addr, 64u);
  EXPECT_EQ(src.next().addr, 128u);
  EXPECT_EQ(src.next().addr, 64u);  // wrapped
  EXPECT_EQ(src.wraps(), 1);
  std::remove(path.c_str());
}

TEST(TraceFile, RecordTraceCapturesGeneratorStream) {
  const auto path = tmpPath("capture");
  SyntheticParams p;
  p.mapki = 20.0;
  p.footprintBytes = 16 * kMiB;
  p.seed = 9;
  SyntheticSource live(p);
  {
    SyntheticSource toRecord(p);  // same seed: identical stream
    recordTrace(toRecord, path, 500);
  }
  TraceFileSource replay(path);
  for (int i = 0; i < 500; ++i) {
    const auto want = live.next();
    const auto got = replay.next();
    EXPECT_EQ(got.addr, want.addr);
    EXPECT_EQ(got.gapInstrs, want.gapInstrs);
    EXPECT_EQ(got.write, want.write);
    EXPECT_EQ(got.dependent, want.dependent);
  }
  std::remove(path.c_str());
}

TEST(TraceFile, PerCorePathConvention) {
  EXPECT_EQ(traceFilePath("/tmp/mcf", 0), "/tmp/mcf.0.mbt");
  EXPECT_EQ(traceFilePath("x", 13), "x.13.mbt");
}

TEST(TraceFile, WrapAndRecordCountSemantics) {
  const auto path = tmpPath("wrapsem");
  {
    TraceFileWriter w(path);
    w.append(makeRecord(1, 64, false, false));
    w.append(makeRecord(2, 128, true, false));
    w.append(makeRecord(3, 192, false, true));
  }
  TraceFileSource src(path);
  // recordCount is the on-disk record count and never changes with replay
  // position; wraps counts completed passes through the file.
  EXPECT_EQ(src.recordCount(), 3);
  EXPECT_EQ(src.wraps(), 0);
  for (int pass = 0; pass < 4; ++pass) {
    EXPECT_EQ(src.next().addr, 64u);
    EXPECT_EQ(src.next().addr, 128u);
    EXPECT_EQ(src.wraps(), pass);  // wrap happens on consuming the last record
    EXPECT_EQ(src.next().addr, 192u);
    EXPECT_EQ(src.wraps(), pass + 1);
    EXPECT_EQ(src.recordCount(), 3);
  }
  std::remove(path.c_str());
}

// Malformed replay input raises through the check-failure channel with a
// structured MB-TRC code: a catchable CheckFailure under ScopedCheckTrap,
// an abort otherwise (death tests below).

std::string trappedFailure(const std::string& path) {
  ScopedCheckTrap trap;
  try {
    TraceFileSource src(path);
  } catch (const CheckFailure& f) {
    return f.message;
  }
  return {};
}

TEST(TraceFile, MissingFileIsTrc001) {
  const auto msg = trappedFailure("/nonexistent/trace.mbt");
  EXPECT_NE(msg.find("MB-TRC-001"), std::string::npos) << msg;
}

TEST(TraceFile, BadMagicIsTrc002) {
  const auto path = tmpPath("badmagic_trap");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOTATRACEFILE----", f);
  std::fclose(f);
  const auto msg = trappedFailure(path);
  EXPECT_NE(msg.find("MB-TRC-002"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceFile, UnsupportedVersionIsTrc003) {
  const auto path = tmpPath("badversion");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("MBTRACE1", 1, 8, f);
  const std::uint32_t version = 99, reserved = 0;
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(&reserved, sizeof(reserved), 1, f);
  std::fclose(f);
  const auto msg = trappedFailure(path);
  EXPECT_NE(msg.find("MB-TRC-003"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceFile, TruncatedHeaderIsTrc004) {
  const auto path = tmpPath("truncheader");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("MBTRACE1", 1, 8, f);  // magic only, no version/reserved
  std::fclose(f);
  const auto msg = trappedFailure(path);
  EXPECT_NE(msg.find("MB-TRC-004"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceFile, TruncatedRecordIsTrc004) {
  const auto path = tmpPath("trunc_trap");
  {
    TraceFileWriter w(path);
    w.append(makeRecord(1, 64, false, false));
    w.append(makeRecord(2, 128, false, false));
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, truncate(path.c_str(), size - 1));
  const auto msg = trappedFailure(path);
  EXPECT_NE(msg.find("MB-TRC-004"), std::string::npos) << msg;
  // The diagnostic names how many records parsed cleanly before the tail.
  EXPECT_NE(msg.find("complete_records"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceIsTrc005) {
  const auto path = tmpPath("empty_trap");
  { TraceFileWriter w(path); }
  const auto msg = trappedFailure(path);
  EXPECT_NE(msg.find("MB-TRC-005"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceFileDeath, MissingFileAborts) {
  EXPECT_DEATH(TraceFileSource("/nonexistent/trace.mbt"), "MB-TRC-001");
}

TEST(TraceFileDeath, BadMagicAborts) {
  const auto path = tmpPath("badmagic");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOTATRACEFILE----", f);
  std::fclose(f);
  EXPECT_DEATH(TraceFileSource src(path), "MB-TRC-002");
  std::remove(path.c_str());
}

TEST(TraceFileDeath, TruncatedRecordAborts) {
  const auto path = tmpPath("trunc");
  {
    TraceFileWriter w(path);
    w.append(makeRecord(1, 64, false, false));
  }
  // Chop off the last byte of the only record.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, truncate(path.c_str(), size - 1));
  EXPECT_DEATH(TraceFileSource src(path), "MB-TRC-004");
  std::remove(path.c_str());
}

TEST(TraceFileDeath, EmptyTraceAborts) {
  const auto path = tmpPath("empty");
  { TraceFileWriter w(path); }
  EXPECT_DEATH(TraceFileSource src(path), "MB-TRC-005");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mb::trace
