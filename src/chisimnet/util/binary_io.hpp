#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "chisimnet/util/error.hpp"

/// Little-endian binary stream helpers and CRC32, shared by the CLG5 log
/// format (elog) and graph exporters. All multi-byte values are written
/// little-endian regardless of host order so files are portable.

namespace chisimnet::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span,
/// optionally chained via the seed parameter.
std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed = 0) noexcept;

/// The CRC of a concatenation from the CRCs of its parts: given
/// a = crc32(A) and b = crc32(B) with B of `lengthB` bytes, returns
/// crc32(A ++ B), which also equals crc32(B, a). O(log lengthB), so CRCs
/// taken over chunks in parallel fold into the CRC of the whole.
std::uint32_t crc32Combine(std::uint32_t a, std::uint32_t b,
                           std::uint64_t lengthB) noexcept;

/// The little-endian u32 at `bytes`.
inline std::uint32_t loadLe32(const std::byte* bytes) noexcept {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

/// The little-endian u64 at `bytes`.
inline std::uint64_t loadLe64(const std::byte* bytes) noexcept {
  return loadLe32(bytes) | (std::uint64_t{loadLe32(bytes + 4)} << 32);
}

/// LEB128-style unsigned varint append (1-5 bytes for u32 values).
inline void putVarint(std::vector<std::byte>& out, std::uint32_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::byte>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::byte>(value));
}

/// Reads a varint at `cursor`, advancing it. Throws on truncation.
inline std::uint32_t getVarint(std::span<const std::byte> bytes,
                               std::size_t& cursor) {
  std::uint32_t value = 0;
  int shift = 0;
  while (true) {
    CHISIM_CHECK(cursor < bytes.size(), "truncated varint");
    const auto piece = static_cast<std::uint32_t>(bytes[cursor++]);
    value |= (piece & 0x7F) << shift;
    if ((piece & 0x80) == 0) {
      return value;
    }
    shift += 7;
    CHISIM_CHECK(shift < 36, "varint too long");
  }
}

/// ZigZag mapping of signed deltas onto unsigned varint-friendly values.
inline std::uint32_t zigzagEncode(std::int32_t value) noexcept {
  return (static_cast<std::uint32_t>(value) << 1) ^
         static_cast<std::uint32_t>(value >> 31);
}

inline std::int32_t zigzagDecode(std::uint32_t value) noexcept {
  return static_cast<std::int32_t>(value >> 1) ^
         -static_cast<std::int32_t>(value & 1);
}

inline void writeU32(std::ostream& out, std::uint32_t value) {
  unsigned char buffer[4];
  buffer[0] = static_cast<unsigned char>(value);
  buffer[1] = static_cast<unsigned char>(value >> 8);
  buffer[2] = static_cast<unsigned char>(value >> 16);
  buffer[3] = static_cast<unsigned char>(value >> 24);
  out.write(reinterpret_cast<const char*>(buffer), 4);
}

inline void writeU64(std::ostream& out, std::uint64_t value) {
  writeU32(out, static_cast<std::uint32_t>(value));
  writeU32(out, static_cast<std::uint32_t>(value >> 32));
}

inline std::uint32_t readU32(std::istream& in) {
  std::byte buffer[4];
  in.read(reinterpret_cast<char*>(buffer), 4);
  CHISIM_CHECK(in.gcount() == 4, "unexpected end of stream reading u32");
  return loadLe32(buffer);
}

inline std::uint64_t readU64(std::istream& in) {
  const std::uint64_t low = readU32(in);
  const std::uint64_t high = readU32(in);
  return low | (high << 32);
}

inline void writeBytes(std::ostream& out, std::span<const std::byte> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline void readBytes(std::istream& in, std::span<std::byte> bytes) {
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  CHISIM_CHECK(in.gcount() == static_cast<std::streamsize>(bytes.size()),
               "unexpected end of stream reading byte block");
}

}  // namespace chisimnet::util
