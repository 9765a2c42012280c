#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common.hpp"

namespace mbbench {

std::int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::open(const std::string& name, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.startNs = nowNs();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].endNs = nowNs();
  // Scopes nest, so the closing span is the innermost open one.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanRecorder::add(const std::string& name, std::int64_t startNs,
                      std::int64_t endNs, std::int64_t request, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.startNs = startNs;
  s.endNs = endNs;
  s.parent = parent != kOpenParent ? parent : stack_.empty() ? -1 : stack_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

std::string layerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::map<std::string, double> SpanRecorder::layerSelfSeconds() const {
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.endNs >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs, s.endNs);

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.endNs < 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of child intervals clipped to this span.
    std::int64_t covered = 0, curStart = 0, curEnd = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.startNs);
      b = std::min(b, s.endNs);
      if (b <= a) continue;
      if (a > curEnd) {
        if (curEnd > curStart) covered += curEnd - curStart;
        curStart = a;
        curEnd = b;
      } else {
        curEnd = std::max(curEnd, b);
      }
    }
    if (curEnd > curStart) covered += curEnd - curStart;
    self[layerOf(s.name)] += static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
  }
  return self;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.endNs >= 0)
      out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
  return out;
}

bool SpanRecorder::writeJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << JsonObj()
               .integer("id", static_cast<long long>(i))
               .str("name", s.name)
               .integer("start_ns", s.startNs - t0)
               .integer("end_ns", s.endNs < 0 ? -1 : s.endNs - t0)
               .integer("parent", s.parent)
               .integer("request", s.request)
               .text()
        << '\n';
  }
  return out.good();
}

}  // namespace mbbench
