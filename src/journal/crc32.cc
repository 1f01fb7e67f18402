#include "src/journal/crc32.h"

#include <array>

namespace ras {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // Reflected IEEE 802.3.

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8: kTables[0] is the bytewise table; kTables[k][i] is the CRC
// of byte i followed by k zero bytes, so eight table lookups advance the CRC
// over eight input bytes at once.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

// Little-endian 32-bit load, spelled bytewise so the result does not depend
// on the host's byte order.
uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

// Product of two polynomials modulo the CRC polynomial, both in the
// reflected bit order (zlib's multmodp). Bounded to 32 steps, so a zero
// factor yields zero rather than spinning.
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) {
        break;
      }
    }
    b = (b & 1u) != 0 ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

// kPow2Bits[k] = x^(2^k) mod P, for every bit of a byte length times 8;
// kByteShift[n] = x^(8n) mod P for the short lengths a state line has.
using PowTable = std::array<uint32_t, 3 + 64>;
constexpr PowTable BuildPow2Bits() {
  PowTable table{};
  table[0] = 1u << 30;  // x^1.
  for (size_t k = 1; k < table.size(); ++k) {
    table[k] = MultModP(table[k - 1], table[k - 1]);
  }
  return table;
}
constexpr PowTable kPow2Bits = BuildPow2Bits();

using ShiftTable = std::array<uint32_t, 256>;
constexpr ShiftTable BuildByteShift() {
  ShiftTable table{};
  table[0] = 1u << 31;
  for (size_t n = 1; n < table.size(); ++n) {
    table[n] = MultModP(table[n - 1], kPow2Bits[3]);  // One more byte: x^8.
  }
  return table;
}
constexpr ShiftTable kByteShift = BuildByteShift();

// x^(8·len) mod P (zlib's x2nmodp(len, 3)).
uint32_t ByteShift(size_t len) {
  if (len < kByteShift.size()) {
    return kByteShift[len];
  }
  uint32_t shift = 1u << 31;
  for (size_t k = 3; len != 0; len >>= 1, ++k) {
    if ((len & 1u) != 0) {
      shift = MultModP(kPow2Bits[k], shift);
    }
  }
  return shift;
}

}  // namespace

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  return MultModP(ByteShift(len_b), crc_a) ^ crc_b;
}

Crc32Run Crc32RunOf(std::string_view data) { return {Crc32(data), ByteShift(data.size())}; }

Crc32Run Crc32Combine(const Crc32Run& a, const Crc32Run& b) {
  return {MultModP(b.shift, a.crc) ^ b.crc, MultModP(a.shift, b.shift)};
}

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ Load32(p);
    uint32_t hi = Load32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
          kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

}  // namespace ras
