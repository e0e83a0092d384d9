// LEB128 varints for the binary wire formats (tree_io binary codec, label
// batch blobs). Unsigned base-128, little-endian groups, at most 10 bytes
// for a 64-bit value. Decoding never trusts the input: encodings beyond 10
// bytes or 64 bits and truncated streams are reported through the caller's
// error sink rather than read past the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cpart {

inline void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

/// Number of bytes append_varint(value) emits.
inline std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Reads one varint from bytes[pos...]. On success advances pos and returns
/// true; on truncation, an encoding longer than 10 bytes, or a value above
/// 2^64 - 1 returns false with pos at the offending offset.
inline bool read_varint(std::string_view bytes, std::size_t& pos,
                        std::uint64_t& value) {
  value = 0;
  for (unsigned shift = 0;; shift += 7) {
    if (pos >= bytes.size()) return false;
    const std::uint8_t b = static_cast<std::uint8_t>(bytes[pos]);
    // The 10th byte carries bit 63 alone: a higher bit or a continuation
    // would not fit in 64 bits. append_varint never emits one.
    if (shift == 63 && b > 1) return false;
    ++pos;
    value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
  }
}

}  // namespace cpart
