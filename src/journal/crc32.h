// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven (slicing-by-8).
//
// Every journal record and checkpoint body carries a CRC so recovery can
// tell a torn or bit-flipped tail from valid history, and the state digest
// is the CRC of the whole serialized region. Implemented here rather than
// pulled from zlib: the journal must not grow a dependency for 60 lines of
// table lookup.
//
// The CRC is linear, so the CRC of a concatenation follows from the parts'
// CRCs and the second part's length (zlib's crc32_combine). The state digest
// keeps a tree of such parts and recombines only what changed.

#ifndef RAS_SRC_JOURNAL_CRC32_H_
#define RAS_SRC_JOURNAL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ras {

// CRC of `data` continuing from `seed` (pass the previous result to chain
// buffers). The default seed is the standard initial value.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

// Crc32 of A followed by B, from Crc32(A), Crc32(B) and B's length.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

// A byte string as the combine rule needs it: its Crc32 and x^(8·length)
// modulo the CRC polynomial (the factor that moves a CRC past that many
// bytes). The default is the empty string.
struct Crc32Run {
  uint32_t crc = 0;
  uint32_t shift = 1u << 31;  // x^0 in the reflected bit order.
};

Crc32Run Crc32RunOf(std::string_view data);
// The run of A followed by B.
Crc32Run Crc32Combine(const Crc32Run& a, const Crc32Run& b);

}  // namespace ras

#endif  // RAS_SRC_JOURNAL_CRC32_H_
