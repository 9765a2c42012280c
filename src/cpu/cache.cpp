#include "cpu/cache.hpp"

namespace mb::cpu {

Cache::Cache(std::int64_t sizeBytes, int associativity, int lineBytes)
    : sizeBytes_(sizeBytes), assoc_(associativity), lineBytes_(lineBytes) {
  MB_CHECK(isPowerOfTwo(sizeBytes) && isPowerOfTwo(lineBytes));
  MB_CHECK(associativity >= 1);
  const std::int64_t linesTotal = sizeBytes / lineBytes;
  MB_CHECK(linesTotal % associativity == 0);
  numSets_ = static_cast<int>(linesTotal / associativity);
  MB_CHECK(isPowerOfTwo(numSets_));
  lineBits_ = exactLog2(lineBytes);
  setBits_ = exactLog2(numSets_);
  lines_.resize(static_cast<size_t>(linesTotal));
}

Cache::Line* Cache::lookup(std::uint64_t addr) {
  const std::uint64_t set = setOf(addr);
  const std::uint64_t tag = tagOf(addr);
  Line* base = &lines_[static_cast<size_t>(set) * static_cast<size_t>(assoc_)];
  for (int w = 0; w < assoc_; ++w) {
    Line& line = base[w];
    if (line.state != LineState::Invalid && line.tag == tag) {
      line.lruStamp = ++lruCounter_;
      return &line;
    }
  }
  return nullptr;
}

const Cache::Line* Cache::peek(std::uint64_t addr) const {
  const std::uint64_t set = setOf(addr);
  const std::uint64_t tag = tagOf(addr);
  const Line* base = &lines_[static_cast<size_t>(set) * static_cast<size_t>(assoc_)];
  for (int w = 0; w < assoc_; ++w) {
    if (base[w].state != LineState::Invalid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

Cache::Eviction Cache::insert(std::uint64_t addr, LineState state, bool prefetched) {
  MB_DCHECK(state != LineState::Invalid);
  MB_DCHECK(peek(addr) == nullptr);
  const std::uint64_t set = setOf(addr);
  const std::uint64_t tag = tagOf(addr);
  Line* base = &lines_[static_cast<size_t>(set) * static_cast<size_t>(assoc_)];
  Line* victim = &base[0];
  for (int w = 0; w < assoc_; ++w) {
    Line& line = base[w];
    if (line.state == LineState::Invalid) {
      victim = &line;
      break;
    }
    if (line.lruStamp < victim->lruStamp) victim = &line;
  }
  Eviction ev;
  if (victim->state != LineState::Invalid) {
    ev.valid = true;
    ev.addr = rebuildAddr(victim->tag, set);
    ev.dirty = victim->state == LineState::Modified;
  }
  victim->tag = tag;
  victim->state = state;
  victim->lruStamp = ++lruCounter_;
  victim->prefetched = prefetched;
  return ev;
}

bool Cache::invalidate(std::uint64_t addr, bool* wasDirty) {
  Line* line = lookup(addr);
  if (line == nullptr) return false;
  if (wasDirty != nullptr) *wasDirty = line->state == LineState::Modified;
  line->state = LineState::Invalid;
  return true;
}

bool Cache::downgrade(std::uint64_t addr) {
  Line* line = lookup(addr);
  if (line == nullptr) return false;
  const bool wasDirty = line->state == LineState::Modified;
  line->state = LineState::Shared;
  return wasDirty;
}

std::int64_t Cache::validLineCount() const {
  std::int64_t n = 0;
  for (const auto& line : lines_)
    if (line.state != LineState::Invalid) ++n;
  return n;
}


template <class Ar>
void Cache::io(Ar& ar) {
  ar.u64Expect(lines_.size());
  for (auto& ln : lines_) {
    ar.u64(ln.tag);
    ar.u8Enum(ln.state, LineState::Modified);
    ar.u64(ln.lruStamp);
    ar.b(ln.prefetched);
  }
  ar.u64(lruCounter_);
}
MB_SNAP_IO_INSTANTIATE(Cache);

}  // namespace mb::cpu
