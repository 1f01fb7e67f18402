// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven (slicing-by-8).
//
// Every journal record and checkpoint body carries a CRC so recovery can
// tell a torn or bit-flipped tail from valid history, and the state digest
// is the CRC of the whole serialized region. Implemented here rather than
// pulled from zlib: the journal must not grow a dependency for 60 lines of
// table lookup.

#ifndef RAS_SRC_JOURNAL_CRC32_H_
#define RAS_SRC_JOURNAL_CRC32_H_

#include <cstdint>
#include <string_view>

namespace ras {

// CRC of `data` continuing from `seed` (pass the previous result to chain
// buffers). The default seed is the standard initial value.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace ras

#endif  // RAS_SRC_JOURNAL_CRC32_H_
