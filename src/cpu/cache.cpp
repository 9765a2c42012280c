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
  // kValidTag lies above every real tag only if the set index and the line
  // offset take at least one address bit.
  MB_CHECK(setBits_ + lineBits_ >= 1);
  ways_ = static_cast<std::size_t>(linesTotal);
  lines_.reset(static_cast<Line*>(std::calloc(ways_, sizeof(Line))));
  words_.reset(static_cast<std::uint64_t*>(std::calloc(2 * ways_, sizeof(std::uint64_t))));
  MB_CHECK(lines_ != nullptr && words_ != nullptr);
}

std::ptrdiff_t Cache::wayOf(std::uint64_t addr) const {
  const std::uint64_t tag = tagOf(addr) | kValidTag;
  const size_t base = static_cast<size_t>(setOf(addr)) * static_cast<size_t>(assoc_);
  const std::uint64_t* set = tags() + base;
  for (int w = 0; w < assoc_; ++w)
    if (set[w] == tag) return static_cast<std::ptrdiff_t>(base) + w;
  return -1;
}

bool Cache::setConsistent(std::uint64_t set) const {
  const size_t base = static_cast<size_t>(set) * static_cast<size_t>(assoc_);
  for (size_t i = base; i < base + static_cast<size_t>(assoc_); ++i)
    if (((tags()[i] & kValidTag) != 0) != (lines_[i].state != LineState::Invalid))
      return false;
  return true;
}

Cache::Line* Cache::lookup(std::uint64_t addr) {
  const std::ptrdiff_t i = wayOf(addr);
  if (i < 0) return nullptr;
  stamps()[i] = ++lruCounter_;
  return &lines_[static_cast<size_t>(i)];
}

const Cache::Line* Cache::peek(std::uint64_t addr) const {
  const std::ptrdiff_t i = wayOf(addr);
  return i < 0 ? nullptr : &lines_[static_cast<size_t>(i)];
}

Cache::Eviction Cache::insert(std::uint64_t addr, LineState state, bool prefetched) {
  MB_DCHECK(state != LineState::Invalid);
  MB_DCHECK(peek(addr) == nullptr);
  const std::uint64_t set = setOf(addr);
  const size_t base = static_cast<size_t>(set) * static_cast<size_t>(assoc_);
  // The first invalid way, else the least recently used one (lowest way on
  // a tie).
  std::uint64_t* tag = tags();
  std::uint64_t* stamp = stamps();
  size_t victim = base;
  for (size_t i = base; i < base + static_cast<size_t>(assoc_); ++i) {
    if ((tag[i] & kValidTag) == 0) {
      victim = i;
      break;
    }
    if (stamp[i] < stamp[victim]) victim = i;
  }
  Eviction ev;
  Line& line = lines_[victim];
  if ((tag[victim] & kValidTag) != 0) {
    ev.valid = true;
    ev.addr = rebuildAddr(tag[victim] & ~kValidTag, set);
    ev.dirty = line.state == LineState::Modified;
  }
  tag[victim] = tagOf(addr) | kValidTag;
  line.state = state;
  stamp[victim] = ++lruCounter_;
  line.prefetched = prefetched;
  MB_DCHECK(setConsistent(set));
  return ev;
}

bool Cache::invalidate(std::uint64_t addr, bool* wasDirty) {
  Line* line = lookup(addr);
  if (line == nullptr) return false;
  if (wasDirty != nullptr) *wasDirty = line->state == LineState::Modified;
  line->state = LineState::Invalid;
  tags()[line - lines_.get()] &= ~kValidTag;
  MB_DCHECK(setConsistent(setOf(addr)));
  return true;
}

bool Cache::downgrade(std::uint64_t addr) {
  Line* line = lookup(addr);
  if (line == nullptr) return false;
  const bool wasDirty = line->state == LineState::Modified;
  line->state = LineState::Shared;
  MB_DCHECK(setConsistent(setOf(addr)));
  return wasDirty;
}

std::int64_t Cache::validLineCount() const {
  std::int64_t n = 0;
  for (size_t i = 0; i < ways_; ++i)
    if ((tags()[i] & kValidTag) != 0) ++n;
  return n;
}

template <class Ar>
void Cache::io(Ar& ar) {
  // One record per way: tag (the stale tag for an invalid way), state, LRU
  // stamp, prefetched.
  const std::uint64_t tagLimit = std::uint64_t{1} << (64 - setBits_ - lineBits_);
  ar.u64Expect(ways_);
  for (size_t i = 0; i < ways_; ++i) {
    Line& ln = lines_[i];
    std::uint64_t tag = tags()[i] & ~kValidTag;
    ar.u64(tag);
    ar.u8Enum(ln.state, LineState::Modified);
    ar.u64(stamps()[i]);
    ar.b(ln.prefetched);
    if constexpr (Ar::kLoading) {
      if (tag >= tagLimit) {
        ar.fail();
        tag = 0;
      }
      tags()[i] = tag | (ln.state == LineState::Invalid ? 0 : kValidTag);
    }
  }
  ar.u64(lruCounter_);
}
MB_SNAP_IO_INSTANTIATE(Cache);

}  // namespace mb::cpu
