// Forging snapshot payloads for hostile-input tests.
//
// A test saves a real component, then overwrites one field of the encoded
// bytes to a value no honest writer produces. Fields are located relative
// to an anchor: a distinctive 64-bit value the test put into the state (an
// address, usually) whose little-endian encoding occurs at a known distance
// from the field, or by a byte offset the test derived from the section's
// layout.
#pragma once

#include <cstdint>
#include <string>

namespace mb {

/// Overwrite the little-endian i32 `skip` bytes after the first (or, with
/// `last`, the final) occurrence of `anchor`'s 8-byte encoding. Returns
/// false when the anchor does not occur.
inline bool forgeI32After(std::string& bytes, std::uint64_t anchor,
                          std::size_t skip, std::int32_t value,
                          bool last = false) {
  std::string pattern(8, '\0');
  for (int i = 0; i < 8; ++i)
    pattern[static_cast<std::size_t>(i)] = static_cast<char>((anchor >> (8 * i)) & 0xFF);
  const std::size_t at = last ? bytes.rfind(pattern) : bytes.find(pattern);
  if (at == std::string::npos || at + skip + 4 > bytes.size()) return false;
  const auto v = static_cast<std::uint32_t>(value);
  for (int i = 0; i < 4; ++i)
    bytes[at + skip + static_cast<std::size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return true;
}

/// The little-endian u64 at byte `at` (0 when it does not fit).
inline std::uint64_t readU64At(const std::string& bytes, std::size_t at) {
  if (at + 8 > bytes.size()) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

/// Overwrite the little-endian u64 at byte `at`; false when it does not fit.
inline bool forgeU64At(std::string& bytes, std::size_t at, std::uint64_t value) {
  if (at + 8 > bytes.size()) return false;
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>((value >> (8 * i)) & 0xFF);
  return true;
}

}  // namespace mb
