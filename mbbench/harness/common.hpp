// Small helpers shared by the benchmark harness: clocks, CPU time, the
// median, hex formatting of output digests, and a one-line JSON object
// writer for the raw measurement records the harness prints (run.py
// aggregates them).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mbbench {

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double cpuSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// user+sys seconds consumed by this process so far.
inline double selfCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpuSeconds(ru);
}

/// Peak resident set of this process (KiB on Linux).
inline long selfPeakRssKiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Median of a sample (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string jsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Builds one JSON object, key by key, in insertion order.
class JsonObj {
 public:
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, jsonQuote(v));
  }
  JsonObj& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  JsonObj& integer(const std::string& k, long long v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonObj& raw(const std::string& k, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += jsonQuote(k) + ":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// One raw measurement record per stdout line.
inline void emit(const JsonObj& o) {
  std::fputs((o.text() + "\n").c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace mbbench
