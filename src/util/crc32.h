// CRC-32 (IEEE 802.3 polynomial, reflected) used to validate on-disk
// structures: segment summary blocks and checkpoint regions.

#ifndef LFS_UTIL_CRC32_H_
#define LFS_UTIL_CRC32_H_

#include <cstdint>
#include <span>

namespace lfs {

// One-shot CRC of a byte span.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental form: crc = Crc32Update(crc, chunk) starting from
// Crc32Init() and finished with Crc32Finish(crc).
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
uint32_t Crc32Finish(uint32_t state);

// The kernel this CPU runs for long inputs: "vpclmulqdq-512",
// "pclmulqdq-128" or "table".
const char* Crc32KernelName();

}  // namespace lfs

#endif  // LFS_UTIL_CRC32_H_
