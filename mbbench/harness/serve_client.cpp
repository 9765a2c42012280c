#include "serve_client.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "ckpt/serialize.hpp"
#include "common.hpp"
#include "common/json_mini.hpp"

namespace mbbench {

namespace {

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::string* strField(const mb::json::JVal& v, const char* key) {
  const mb::json::JVal* f = v.get(key);
  return f != nullptr && f->t == mb::json::JVal::T::Str ? &f->s : nullptr;
}

double numField(const mb::json::JVal& v, const char* key) {
  const mb::json::JVal* f = v.get(key);
  return f != nullptr ? f->num() : 0.0;
}

bool boolField(const mb::json::JVal& v, const char* key) {
  const mb::json::JVal* f = v.get(key);
  return f != nullptr && f->t == mb::json::JVal::T::Bool && f->b;
}

/// The exact report bytes of a point event: "result" is its last field, so
/// they run from after `"result":` to the object's closing brace.
std::string resultBytes(const std::string& line) {
  static const std::string tag = ",\"result\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos || line.size() < at + tag.size() + 1) return {};
  return line.substr(at + tag.size(), line.size() - (at + tag.size()) - 1);
}

}  // namespace

ServeSession::~ServeSession() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    rusage ru{};
    finish(&ru);
  }
}

bool ServeSession::start(const std::string& exe, const std::vector<std::string>& args) {
  int in[2], out[2];
  if (::pipe(in) != 0) return false;
  if (::pipe(out) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return false;
  }
  std::vector<std::string> argv = {exe};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    std::perror("mbbench: fork");
    return false;
  }
  if (pid_ == 0) {
    ::dup2(in[0], 0);
    ::dup2(out[1], 1);
    ::close(in[0]);
    ::close(in[1]);
    ::close(out[0]);
    ::close(out[1]);
    ::execv(exe.c_str(), cargv.data());
    std::fprintf(stderr, "mbbench: cannot exec %s: %s\n", exe.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  toChild_ = in[1];
  fromChild_ = out[0];
  return true;
}

bool ServeSession::writeLine(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(toChild_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool ServeSession::readLine(std::string* line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    pollfd pfd{fromChild_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kReadTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::read(fromChild_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

ServeReply ServeSession::submit(const std::string& line, const std::string& id) {
  ServeReply r;
  r.submitNs = steadyNs();
  if (!writeLine(line)) {
    r.error = "request write failed";
    return r;
  }
  bool sawError = false;
  std::string ev;
  while (readLine(&ev)) {
    mb::json::JVal v;
    mb::json::JParser parser(ev);
    if (!parser.parse(&v) || v.t != mb::json::JVal::T::Obj) {
      r.error = "unparseable event: " + ev.substr(0, 200);
      return r;
    }
    const std::string* kind = strField(v, "event");
    const std::string* evId = strField(v, "id");
    if (kind == nullptr) continue;
    if (*kind == "error") {
      // Every error event ends its request; one without our id (or with an
      // empty id) is a rejection of the line itself.
      r.error = ev.substr(0, 300);
      sawError = true;
      if (evId == nullptr || evId->empty() || *evId == id) break;
      continue;
    }
    if (evId == nullptr || *evId != id) continue;
    if (*kind == "accepted") {
      r.acceptedNs = steadyNs();
    } else if (*kind == "point") {
      ServedPoint p;
      p.index = static_cast<int>(numField(v, "point"));
      p.ok = boolField(v, "ok");
      p.cached = boolField(v, "cached");
      if (p.ok) {
        const std::string bytes = resultBytes(ev);
        p.digest = hex64(mb::ckpt::fnv1a64(bytes));
        if (const mb::json::JVal* res = v.get("result"))
          p.instrs = static_cast<std::int64_t>(numField(*res, "instructions"));
      } else if (r.error.empty()) {
        r.error = ev.substr(0, 300);
      }
      r.points.push_back(std::move(p));
    } else if (*kind == "done") {
      r.doneNs = steadyNs();
      r.cached = static_cast<int>(numField(v, "cached"));
      r.simulated = static_cast<int>(numField(v, "simulated"));
      r.ok = boolField(v, "ok") && !sawError;
      return r;
    }
  }
  if (r.error.empty()) r.error = "no done event (daemon exited or timed out)";
  r.doneNs = steadyNs();
  return r;
}

std::string ServeSession::roundTrip(const std::string& line) {
  std::string ev;
  if (!writeLine(line) || !readLine(&ev)) return {};
  return ev;
}

bool ServeSession::finish(rusage* usage) {
  if (pid_ <= 0) return false;
  if (toChild_ >= 0) {
    ::close(toChild_);
    toChild_ = -1;
  }
  std::string rest;
  while (readLine(&rest)) {
  }
  if (fromChild_ >= 0) {
    ::close(fromChild_);
    fromChild_ = -1;
  }
  int status = 0;
  pid_t got;
  do {
    got = ::wait4(pid_, &status, 0, usage);
  } while (got < 0 && errno == EINTR);
  pid_ = -1;
  return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace mbbench
