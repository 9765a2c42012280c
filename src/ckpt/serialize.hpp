// Binary serialization primitives for the MBCKPT1 checkpoint format.
//
// The Serializable protocol: every stateful component describes its
// snapshot state once, as a walk over its mutable members,
//
//   template <class Ar> void io(Ar& ar);
//   MB_SNAP_ENTRY_POINTS(, )   // generates save(Writer&) const / load(Reader&)
//
// and the same walk writes the snapshot when `Ar` is SaveArchive and reads
// it back when `Ar` is LoadArchive. Both archives have the same member
// names and take each field by reference (`ar.u64(x)`), so the two
// directions cannot drift apart: a field is walked in one place, in one
// order, with one wire type. Work that only makes sense on one side —
// rebuilding callbacks, derived caches, clearing containers — goes under
// `if constexpr (Ar::kLoading)`; wire ops never do (mbsnapcheck,
// MB-SNP-001).
//
// save()/load() stay the public entry points, virtual on TraceSource,
// Scheduler and PagePolicy (MB_SNAP_ENTRY_POINTS(virtual, ) on a base that
// supplies a default walk, MB_SNAP_ENTRY_POINTS(, override) on subclasses), so
// a snapshot section can be driven through the interface the simulator
// holds; inside a walk, `ar.sub(obj)` walks a sub-object through those
// entry points. A walk defined out of line is instantiated for both
// archives with MB_SNAP_IO_INSTANTIATE(Class). Structural parameters that
// come from the constructor (geometry, sizes, timing) are NOT serialized: a
// snapshot is only loadable into a system built from the identical
// SystemConfig, which the container enforces with a config hash
// (snapshot.hpp).
//
// A malformed payload must surface as `!r.ok()` rather than undefined
// behaviour. Reader is bounds-checked and returns zeros after the first
// failure, and the load-side checks live in LoadArchive helpers whose
// names carry the wire type:
//
//   ar.u64Count(n, minElemBytes)  guarded element count (no giant alloc)
//   ar.u64Expect(size)            size the constructor built; mismatch fails
//   ar.u8Enum(e, Max)             enum in [0, Max]
//   ar.i32Index(i, limit[, first]) index in [first, limit)
//   ar.mapSorted(m, minEntryBytes, walkValue)   integral-keyed map, key order
//
// so the snapshot reader can reject a corrupt section with a stable
// diagnostic while the process keeps running.
//
// Everything here is header-only and intentionally free of link-time
// dependencies so that low-level libraries (common, dram, mc, cpu, trace)
// can implement the protocol without depending on the mb_ckpt library,
// which owns only the container format.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mb::ckpt {

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the checksum
/// MBCKPT1 uses per section and for the file trailer. Table-driven; the
/// table is built once on first use.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  static const auto table = [] {
    struct Table {
      std::uint32_t entry[256];
    } t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t.entry[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i)
    c = table.entry[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// FNV-1a over a byte string; used for the config / warmup-key hashes the
/// snapshot header carries. 64-bit so accidental collisions across the
/// config space are not a practical concern.
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i32(std::int32_t v) { putLe(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  /// Doubles travel as their exact bit pattern — restore is bitwise.
  void f64(double v) { putLe(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void bytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& str() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void putLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
  std::string buf_;
};

/// Bounds-checked little-endian decoder. After any underflow or explicit
/// fail(), every further read returns zero and ok() is false; callers check
/// `r.ok() && r.atEnd()` once at the end of a section instead of sprinkling
/// error handling through every load().
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() { return getLe<std::uint32_t>(); }
  std::uint64_t u64() { return getLe<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(getLe<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(getLe<std::uint64_t>()); }
  double f64() { return std::bit_cast<double>(getLe<std::uint64_t>()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string out(data_.substr(pos_, n));
    pos_ += n;
    return out;
  }
  /// Element count for a container about to be decoded. `elemBytes` is a
  /// lower bound on the encoded size of one element; a count that cannot
  /// possibly fit in the remaining bytes fails immediately instead of
  /// letting a hostile length trigger a giant allocation.
  std::uint64_t count(std::size_t elemBytes) {
    const std::uint64_t n = u64();
    if (elemBytes > 0 && n > remaining() / elemBytes) {
      fail();
      return 0;
    }
    return n;
  }

  /// Mark the payload structurally invalid (bad enum, mismatched size...).
  void fail() { ok_ = false; }
  bool ok() const { return ok_; }
  bool atEnd() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T getLe() {
    if (!need(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    pos_ += sizeof(T);
    return v;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

template <class T>
inline constexpr bool kWireInt = std::is_integral_v<T> || std::is_enum_v<T>;

/// The saving side of an io() walk: every member takes the field by
/// reference and writes it.
class SaveArchive {
 public:
  static constexpr bool kLoading = false;
  explicit SaveArchive(Writer& w) : w_(w) {}

  template <class T> void u8(const T& v) { w_.u8(cast<std::uint8_t>(v)); }
  template <class T> void b(const T& v) { w_.b(cast<bool>(v)); }
  template <class T> void u32(const T& v) { w_.u32(cast<std::uint32_t>(v)); }
  template <class T> void u64(const T& v) { w_.u64(cast<std::uint64_t>(v)); }
  template <class T> void i32(const T& v) { w_.i32(cast<std::int32_t>(v)); }
  template <class T> void i64(const T& v) { w_.i64(cast<std::int64_t>(v)); }
  void f64(const double& v) { w_.f64(v); }

  void u64Count(const std::uint64_t& n, std::size_t /*minElemBytes*/) { w_.u64(n); }
  void u64Expect(std::uint64_t size) { w_.u64(size); }
  template <class E> void u8Enum(const E& e, E /*max*/) { u8(e); }
  template <class I>
  void i32Index(const I& i, std::int64_t /*limit*/, std::int64_t /*first*/ = 0) {
    i32(i);
  }

  /// Walk a sub-object through its save() entry point (virtual ones too).
  template <class T> void sub(const T& obj) { obj.save(w_); }

  /// An integral-keyed map in ascending key order, so the bytes never
  /// depend on hash-table iteration order: a u64 entry count, then per
  /// entry the key as i64 followed by walkValue(value).
  template <class Map, class WalkValue>
  void mapSorted(Map& m, std::size_t /*minEntryBytes*/, WalkValue&& walkValue) {
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto& [k, v] : m) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    w_.u64(keys.size());
    for (const auto& k : keys) {
      w_.i64(static_cast<std::int64_t>(k));
      walkValue(m.at(k));
    }
  }

  /// Load-side checks hold trivially for the state being saved.
  void fail() {}
  bool ok() const { return true; }

 private:
  template <class To, class T>
  static To cast(const T& v) {
    static_assert(kWireInt<T>, "integer wire ops take integer or enum fields");
    return static_cast<To>(v);
  }
  Writer& w_;
};

/// The loading side of an io() walk: same member names as SaveArchive,
/// each reading into the field it is given.
class LoadArchive {
 public:
  static constexpr bool kLoading = true;
  explicit LoadArchive(Reader& r) : r_(r) {}

  template <class T> void u8(T& v) { v = cast<T>(r_.u8()); }
  template <class T> void b(T& v) { v = cast<T>(r_.b()); }
  template <class T> void u32(T& v) { v = cast<T>(r_.u32()); }
  template <class T> void u64(T& v) { v = cast<T>(r_.u64()); }
  template <class T> void i32(T& v) { v = cast<T>(r_.i32()); }
  template <class T> void i64(T& v) { v = cast<T>(r_.i64()); }
  void f64(double& v) { v = r_.f64(); }

  /// Element count for a container about to be walked; fails when the
  /// count cannot fit in the remaining bytes (see Reader::count).
  void u64Count(std::uint64_t& n, std::size_t minElemBytes) {
    n = r_.count(minElemBytes);
  }
  /// A size fixed at construction from the same configuration.
  void u64Expect(std::uint64_t size) {
    if (r_.u64() != size) r_.fail();
  }
  /// An enum in [0, max]; out of range fails and leaves `e` unchanged.
  template <class E> void u8Enum(E& e, E max) {
    const std::uint8_t v = r_.u8();
    if (v > static_cast<std::uint8_t>(max)) return r_.fail();
    e = static_cast<E>(v);
  }
  /// An index in [first, limit); out of range fails and stores `first`, so
  /// callers still check ok() before using the index.
  template <class I> void i32Index(I& i, std::int64_t limit, std::int64_t first = 0) {
    const std::int32_t v = r_.i32();
    const bool inRange = v >= first && v < limit;
    if (!inRange) r_.fail();
    i = static_cast<I>(inRange ? v : first);
  }

  /// Walk a sub-object through its load() entry point (virtual ones too).
  template <class T> void sub(T& obj) { obj.load(r_); }

  /// Rebuild a map written by SaveArchive::mapSorted; `minEntryBytes` is a
  /// lower bound on one entry's encoded size (key included). A key the
  /// writer cannot have produced fails: a repeated key (the writer emits
  /// each key once) and a map's reserved empty-slot marker (kEmptyKey, see
  /// common/line_table.hpp).
  template <class Map, class WalkValue>
  void mapSorted(Map& m, std::size_t minEntryBytes, WalkValue&& walkValue) {
    m.clear();
    const std::uint64_t n = r_.count(minEntryBytes);
    for (std::uint64_t i = 0; i < n && r_.ok(); ++i) {
      const auto key = static_cast<typename Map::key_type>(r_.i64());
      typename Map::mapped_type value{};
      walkValue(value);
      if constexpr (requires { Map::kEmptyKey; }) {
        if (key == Map::kEmptyKey) return r_.fail();
      }
      if (!m.emplace(key, std::move(value)).second) r_.fail();
    }
  }

  void fail() { r_.fail(); }
  bool ok() const { return r_.ok(); }

 private:
  template <class T, class From>
  static T cast(From v) {
    static_assert(kWireInt<T>, "integer wire ops take integer or enum fields");
    return static_cast<T>(v);
  }
  Reader& r_;
};

}  // namespace mb::ckpt

/// Generates a class's save()/load() entry points as forwarders to its
/// io() walk. `pre` is empty or `virtual`, `post` empty or `override`:
///   MB_SNAP_ENTRY_POINTS(, );  MB_SNAP_ENTRY_POINTS(virtual, );
///   MB_SNAP_ENTRY_POINTS(, override);
/// io() is non-const; the save direction only reads through the archive.
#define MB_SNAP_ENTRY_POINTS(pre, post)                                     \
  pre void save(::mb::ckpt::Writer& w) const post {                         \
    ::mb::ckpt::SaveArchive ar(w);                                          \
    const_cast<std::remove_cvref_t<decltype(*this)>&>(*this).io(ar);        \
  }                                                                         \
  pre void load(::mb::ckpt::Reader& r) post {                               \
    ::mb::ckpt::LoadArchive ar(r);                                          \
    io(ar);                                                                 \
  }

/// Instantiates an io() walk defined out of line, for both archives; goes
/// in the .cpp that defines it.
#define MB_SNAP_IO_INSTANTIATE(Cls)                \
  template void Cls::io(::mb::ckpt::SaveArchive&); \
  template void Cls::io(::mb::ckpt::LoadArchive&)
