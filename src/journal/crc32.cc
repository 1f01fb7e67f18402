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

}  // namespace

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
