// Open-addressed hash table keyed by 64-bit line addresses.
//
// The hierarchy's MESI directory (one entry per line cached anywhere) and
// its pending DRAM fills are large, keyed-only maps on the per-access path:
// a miss probes both, a fill inserts into one and erases from the other. A
// node-based std::unordered_map pays an allocation per insert, a pointer
// chase per probe and a full rehash walk as it grows. LineTable keeps its
// keys in one flat array and its values in a parallel one:
//
//   - capacity is a power of two; a key hashes to its home slot and probes
//     linearly, wrapping at the end of the array;
//   - an empty slot holds kEmptyKey (all ones, never a line address, which
//     is line-aligned; a checkpoint loader rejects it, see
//     LoadArchive::mapSorted);
//   - erase shifts later members of the probe chain back into the hole
//     (backward-shift deletion), so there are no tombstones and a lookup
//     stops at the first empty slot;
//   - the table doubles before its load passes 3/4. A miss then probes a
//     short run of the key array, and the two arrays stay smaller than the
//     node map they replace (a load bound of 1/2 was not).
//
// Every insert may rehash and every erase may move other entries, so a
// pointer returned by find()/operator[]/emplace() is valid only until the
// next insert or erase. Iteration visits slots in hash order, which
// depends on the capacity history: it may only feed the archives'
// mapSorted, which sorts the keys. Any other walk over a LineTable is
// MB-DET-001 (mbdetcheck).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace mb {

template <typename V>
class LineTable {
 public:
  using key_type = std::uint64_t;
  using mapped_type = V;
  /// The empty-slot marker; not a storable key.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return keys_.size(); }
  /// The slot a probe for `key` starts at (tests build wrap-around chains
  /// with it); valid once the table has slots (capacity() > 0).
  std::size_t homeSlot(std::uint64_t key) const { return homeOf(key); }

  void clear() {
    keys_.clear();
    vals_.clear();
    size_ = 0;
    shift_ = 64;
  }

  V* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    const std::size_t i = slotOf(key);
    return keys_[i] == key ? &vals_[i] : nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<LineTable*>(this)->find(key);
  }
  std::size_t count(std::uint64_t key) const { return find(key) != nullptr ? 1 : 0; }

  /// Keyed access; the key must be present (checked).
  V& at(std::uint64_t key) {
    V* v = find(key);
    MB_CHECK(v != nullptr);
    return *v;
  }

  /// The value under `key`, default-constructed when absent.
  V& operator[](std::uint64_t key) { return *emplace(key).first; }

  /// Insert (key, V(args...)) when the key is absent; returns (value,
  /// inserted). An existing value is left as it was.
  template <typename... Args>
  std::pair<V*, bool> emplace(std::uint64_t key, Args&&... args) {
    MB_CHECK(key != kEmptyKey);
    if ((size_ + 1) * 4 > keys_.size() * 3) grow();
    const std::size_t i = slotOf(key);
    if (keys_[i] == key) return {&vals_[i], false};
    keys_[i] = key;
    vals_[i] = V(std::forward<Args>(args)...);
    ++size_;
    return {&vals_[i], true};
  }

  /// Remove `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    std::size_t hole = slotOf(key);
    if (keys_[hole] != key) return false;
    // Backward shift: walk the chain after the hole and move back every
    // entry whose home slot does not lie cyclically in (hole, j].
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; keys_[j] != kEmptyKey; j = (j + 1) & mask) {
      const std::size_t home = homeOf(keys_[j]);
      if (((j - home) & mask) < ((j - hole) & mask)) continue;
      keys_[hole] = keys_[j];
      vals_[hole] = std::move(vals_[j]);
      hole = j;
    }
    keys_[hole] = kEmptyKey;
    vals_[hole] = V();
    --size_;
    return true;
  }

  /// Slot iteration for the archives' mapSorted (hash order; see above).
  struct Entry {
    std::uint64_t first;
    V& second;
  };
  class iterator {
   public:
    iterator(LineTable* t, std::size_t i) : t_(t), i_(i) { skip(); }
    Entry operator*() const { return {t_->keys_[i_], t_->vals_[i_]}; }
    iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    void skip() {
      while (i_ < t_->keys_.size() && t_->keys_[i_] == kEmptyKey) ++i_;
    }
    LineTable* t_;
    std::size_t i_;
  };
  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, keys_.size()); }

 private:
  std::size_t homeOf(std::uint64_t key) const {
    // Line addresses vary mostly in their middle bits; fold the high half
    // in and take the top bits of a multiplicative hash.
    return static_cast<std::size_t>(((key ^ (key >> 29)) * 0xbf58476d1ce4e5b9ull) >> shift_);
  }
  /// The slot holding `key`, or the empty slot ending its probe chain.
  std::size_t slotOf(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = homeOf(key);
    while (keys_[i] != key && keys_[i] != kEmptyKey) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<std::uint64_t> oldKeys(keys_.empty() ? 16 : keys_.size() * 2, kEmptyKey);
    std::vector<V> oldVals(oldKeys.size());
    oldKeys.swap(keys_);
    oldVals.swap(vals_);
    shift_ = 64;
    for (std::size_t n = keys_.size(); n > 1; n >>= 1) --shift_;
    for (std::size_t i = 0; i < oldKeys.size(); ++i) {
      if (oldKeys[i] == kEmptyKey) continue;
      const std::size_t j = slotOf(oldKeys[i]);
      keys_[j] = oldKeys[i];
      vals_[j] = std::move(oldVals[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> vals_;
  std::size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(capacity)
};

}  // namespace mb
