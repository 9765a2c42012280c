// Set-associative cache with MESI line states and true-LRU replacement.
//
// Used for both the per-core L1 data caches (16 KB, 4-way) and the
// per-cluster shared L2 caches (2 MB, 16-way) of §VI-A. The cache is a pure
// state container: lookup/insert/invalidate mutate tag state and report
// evictions; all timing lives in the hierarchy that owns the caches.
//
// Layout: three set-major arrays with one element per way. The tags are
// uint64_t words, and a way that holds a line has kValidTag (the top bit)
// set on top of its tag. No tag of a real address reaches that bit, so a
// probe compares the set's tag words (two host cache lines for 16 ways)
// against the tag with the bit set and never reads a line state. A way
// that holds no line keeps its last tag with the bit clear, because a
// snapshot writes every way's tag, valid or not. The LRU stamps sit in
// their own array, so the victim scan reads only tag and stamp words, and
// the 2-byte Line records hold the MESI state.
//
// A new cache is all zeros (every way invalid with tag 0), so its arrays
// come from calloc: a large block is fresh zero pages that cost nothing
// until a set is used. Writing an initial state into every way would make
// each build of a system pay for its whole L2 metadata, and a fig8 set-up
// builds 25 systems.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace mb::cpu {

enum class LineState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

class Cache {
 public:
  Cache(std::int64_t sizeBytes, int associativity, int lineBytes = kCacheLineBytes);

  /// A way's replacement and coherence state. Callers may move a valid line
  /// between valid states through the pointer lookup() returns; only
  /// invalidate() makes a line Invalid, because the tag array must agree.
  /// Trivial, so zeroed memory holds Lines that are Invalid and not
  /// prefetched.
  struct Line {
    LineState state;
    bool prefetched;  // brought in by the prefetcher, not yet used
  };

  /// Find the line holding `addr`; nullptr on miss. Touches LRU on hit.
  Line* lookup(std::uint64_t addr);
  const Line* peek(std::uint64_t addr) const;

  struct Eviction {
    bool valid = false;       // an existing line was displaced
    std::uint64_t addr = 0;   // base address of the displaced line
    bool dirty = false;       // displaced line was Modified
  };

  /// Install `addr` with `state`; returns what was displaced (if anything).
  /// The caller must have established that `addr` is not present.
  Eviction insert(std::uint64_t addr, LineState state, bool prefetched = false);

  /// Drop the line if present; returns true and reports dirtiness.
  bool invalidate(std::uint64_t addr, bool* wasDirty = nullptr);
  /// Downgrade Modified/Exclusive to Shared; returns true if it was dirty.
  bool downgrade(std::uint64_t addr);

  std::int64_t sizeBytes() const { return sizeBytes_; }
  int associativity() const { return assoc_; }
  int numSets() const { return numSets_; }
  std::uint64_t lineBase(std::uint64_t addr) const {
    return addr & ~static_cast<std::uint64_t>(lineBytes_ - 1);
  }
  /// Count of non-invalid lines (for tests).
  std::int64_t validLineCount() const;

  /// Serializable protocol: tag/state/LRU for every way (geometry is a
  /// construction parameter; a line-count mismatch fails the reader, and so
  /// does a tag no address of this geometry produces).
  template <class Ar> void io(Ar& ar);
  MB_SNAP_ENTRY_POINTS(, );

 private:
  static constexpr std::uint64_t kValidTag = std::uint64_t{1} << 63;

  std::uint64_t tagOf(std::uint64_t addr) const { return addr >> (setBits_ + lineBits_); }
  std::uint64_t setOf(std::uint64_t addr) const {
    return (addr >> lineBits_) & (static_cast<std::uint64_t>(numSets_) - 1);
  }
  std::uint64_t rebuildAddr(std::uint64_t tag, std::uint64_t set) const {
    return (tag << (setBits_ + lineBits_)) | (set << lineBits_);
  }
  std::uint64_t* tags() { return words_.get(); }
  const std::uint64_t* tags() const { return words_.get(); }
  std::uint64_t* stamps() { return words_.get() + ways_; }
  /// Index of the way holding `addr` in the flat arrays, or -1.
  std::ptrdiff_t wayOf(std::uint64_t addr) const;
  /// Every way of `set` is valid in the tag array iff its Line is.
  bool setConsistent(std::uint64_t set) const;

  std::int64_t sizeBytes_;
  int assoc_;
  int lineBytes_;
  int numSets_;
  int lineBits_;
  int setBits_;
  std::uint64_t lruCounter_ = 0;
  struct Free {
    void operator()(void* p) const { std::free(p); }
  };
  std::size_t ways_ = 0;                           // numSets_ * assoc_
  std::unique_ptr<Line[], Free> lines_;            // set-major
  std::unique_ptr<std::uint64_t[], Free> words_;   // tags, then LRU stamps
};

}  // namespace mb::cpu
