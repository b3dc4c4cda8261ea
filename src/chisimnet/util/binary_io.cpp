#include "chisimnet/util/binary_io.hpp"

#include <array>

namespace chisimnet::util {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: tables[0] is the bytewise table; tables[k][b] is the
/// CRC contribution of byte b followed by k zero bytes, so eight lookups
/// advance the CRC over eight input bytes at once.
CrcTables makeCrcTables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value & 1u) ? (0xEDB88320u ^ (value >> 1)) : (value >> 1);
    }
    tables[0][i] = value;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t previous = tables[k - 1][i];
      tables[k][i] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

std::uint32_t loadLe32(const std::byte* bytes) noexcept {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes, std::uint32_t seed) noexcept {
  static const CrcTables tables = makeCrcTables();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  const std::byte* cursor = bytes.data();
  std::size_t remaining = bytes.size();
  for (; remaining >= 8; remaining -= 8, cursor += 8) {
    const std::uint32_t low = loadLe32(cursor) ^ crc;
    const std::uint32_t high = loadLe32(cursor + 4);
    crc = tables[7][low & 0xFFu] ^ tables[6][(low >> 8) & 0xFFu] ^
          tables[5][(low >> 16) & 0xFFu] ^ tables[4][low >> 24] ^
          tables[3][high & 0xFFu] ^ tables[2][(high >> 8) & 0xFFu] ^
          tables[1][(high >> 16) & 0xFFu] ^ tables[0][high >> 24];
  }
  for (; remaining > 0; --remaining, ++cursor) {
    crc = tables[0][(crc ^ static_cast<std::uint32_t>(*cursor)) & 0xFFu] ^
          (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace chisimnet::util
