// Trace capture and replay.
//
// The synthetic generators stand in for SimPoint traces we cannot obtain;
// a user who *does* have real traces (or wants exactly repeatable inputs
// across machines and code versions) can record any TraceSource to a file
// and replay it. The format is a compact little-endian binary:
//
//   header:  8-byte magic "MBTRACE1", u32 version (1), u32 reserved
//   record:  u32 gapInstrs | u64 addr | u8 flags   (13 bytes)
//            flags: bit 0 = write, bit 1 = dependent
//
// Replay loops back to the first record at end-of-file, preserving the
// infinite-source contract the cores rely on (the instruction budget, not
// the trace length, bounds a run).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/generator.hpp"
#include "trace/record.hpp"

namespace mb::trace {

/// Streams records into a trace file.
class TraceFileWriter {
 public:
  explicit TraceFileWriter(const std::string& path);
  ~TraceFileWriter();
  TraceFileWriter(const TraceFileWriter&) = delete;
  TraceFileWriter& operator=(const TraceFileWriter&) = delete;

  void append(const Record& record);
  std::int64_t recordsWritten() const { return written_; }
  /// Flush and close; called by the destructor if not done explicitly.
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::int64_t written_ = 0;
};

/// Replays a trace file as a TraceSource, looping at end-of-file.
///
/// Malformed input (missing file, bad magic, unsupported version, truncated
/// final record, header with no records) is rejected with a structured
/// MB-TRC-001..005 diagnostic raised through the check-failure channel:
/// abort by default, catchable CheckFailure under ScopedCheckTrap.
class TraceFileSource final : public TraceSource {
 public:
  explicit TraceFileSource(const std::string& path);

  Record next() override;

  std::int64_t recordCount() const {
    return static_cast<std::int64_t>(records_.size());
  }
  std::int64_t wraps() const { return wraps_; }

  template <class Ar> void io(Ar& ar) {
    ar.u64Expect(records_.size());  // the same file must back the restore
    ar.u64(cursor_);
    if (cursor_ >= records_.size()) {
      cursor_ = 0;
      return ar.fail();
    }
    ar.i64(wraps_);
  }
  MB_SNAP_ENTRY_POINTS(, override);

 private:
  std::vector<Record> records_;  // traces of interest fit in memory
  size_t cursor_ = 0;
  std::int64_t wraps_ = 0;
};

/// Record `count` records of `source` into `path`.
void recordTrace(TraceSource& source, const std::string& path, std::int64_t count);

/// Conventional per-core trace path: "<prefix>.<core>.mbt".
std::string traceFilePath(const std::string& prefix, int core);

}  // namespace mb::trace
