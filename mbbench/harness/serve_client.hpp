// Closed-loop JSONL client for one `mbserve --stdio` child process.
//
// The session owns the child: start() forks and execs it with pipes on
// stdin/stdout, submit() sends one request line and reads events until that
// request's terminal event, and finish() closes stdin (the daemon drains and
// exits) and reaps the child with its resource usage.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mbbench {

struct ServedPoint {
  int index = -1;
  bool ok = false;
  bool cached = false;
  std::string digest;        // FNV-1a of the exact result bytes
  std::int64_t instrs = 0;   // "instructions" of the result report
};

struct ServeReply {
  bool ok = false;            // done event with ok:true and no error event
  std::string error;          // first failure, for the log
  std::int64_t submitNs = 0;  // steady clock, before the request is written
  std::int64_t acceptedNs = 0;
  std::int64_t doneNs = 0;
  int cached = 0;             // from the done event
  int simulated = 0;
  std::vector<ServedPoint> points;
};

class ServeSession {
 public:
  ServeSession() = default;
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Spawn `exe args...`. False (with a message on stderr) on failure.
  bool start(const std::string& exe, const std::vector<std::string>& args);

  /// Send one submit line for job `id` and wait for its done/error event.
  ServeReply submit(const std::string& line, const std::string& id);

  /// Send one line and return the next event line ("" on EOF / timeout).
  std::string roundTrip(const std::string& line);

  /// Close stdin, read stdout to EOF, reap the child. Returns true when it
  /// exited with status 0; *usage receives its rusage.
  bool finish(rusage* usage);

 private:
  bool writeLine(const std::string& line);
  /// Next complete line from the child's stdout; false on EOF or when no
  /// byte arrives for kReadTimeoutMs.
  bool readLine(std::string* line);

  static constexpr int kReadTimeoutMs = 60000;

  pid_t pid_ = -1;
  int toChild_ = -1;
  int fromChild_ = -1;
  std::string buf_;
};

}  // namespace mbbench
