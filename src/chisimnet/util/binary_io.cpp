#include "chisimnet/util/binary_io.hpp"

#include <array>

namespace chisimnet::util {

namespace {

constexpr std::uint32_t kCrcPolynomial = 0xEDB88320u;  // reflected

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: tables[0] is the bytewise table; tables[k][b] is the
/// CRC contribution of byte b followed by k zero bytes, so eight lookups
/// advance the CRC over eight input bytes at once.
CrcTables makeCrcTables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value & 1u) ? (kCrcPolynomial ^ (value >> 1)) : (value >> 1);
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

/// a·b modulo the CRC polynomial, both in the reflected bit order (bit 31
/// is x^0).
std::uint32_t multiplyModP(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if ((a & bit) != 0) {
      product ^= b;
    }
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPolynomial : b >> 1;
  }
  return product;
}

/// x^(8·bytes) modulo the CRC polynomial: the factor that shifts a CRC
/// register past `bytes` zero bytes. Squares x^(2^k) up the bits of the
/// exponent.
std::uint32_t shiftPastBytes(std::uint64_t bytes) noexcept {
  std::uint32_t result = 1u << 31;  // x^0
  std::uint32_t power = 1u << 23;   // x^8: one byte
  for (; bytes != 0; bytes >>= 1) {
    if ((bytes & 1u) != 0) {
      result = multiplyModP(power, result);
    }
    power = multiplyModP(power, power);
  }
  return result;
}

}  // namespace

std::uint32_t crc32Combine(std::uint32_t a, std::uint32_t b,
                           std::uint64_t lengthB) noexcept {
  // The pre- and post-conditioning of A's register cancel over B's zero
  // bytes, so crc32(A ++ B) is A's CRC carried past lengthB bytes, xored
  // with B's own CRC.
  return multiplyModP(shiftPastBytes(lengthB), a) ^ b;
}

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
