// CRC-32 (IEEE 802.3 polynomial, reflected 0xEDB88320) guarding data
// integrity across the simulated file-system stack: clients stamp write
// payloads and servers verify them, servers stamp read replies and clients
// verify them, and Bstream page checksums detect media faults. It costs no
// simulated time; its host cost is kept low by a carry-less-multiply
// folding kernel where the CPU has one (docs/architecture.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dtio {

/// Incremental CRC-32; pass the previous result as `seed` to chain calls.
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) noexcept;

namespace detail {

// The kernels crc32() chooses between; both give crc32()'s result for every
// (data, seed). Exposed so tests can check each one on any CPU.

/// Slicing-by-16 table kernel; runs everywhere.
std::uint32_t crc32_portable(std::span<const std::uint8_t> data,
                             std::uint32_t seed) noexcept;

/// PCLMULQDQ folding kernel for the 16-byte-multiple body of buffers of
/// 64 B or more, slicing-by-16 for the rest. Call only when
/// crc32_folding_available(); on other architectures it is crc32_portable.
std::uint32_t crc32_folded(std::span<const std::uint8_t> data,
                           std::uint32_t seed) noexcept;

/// True when this CPU runs crc32_folded, and crc32() therefore uses it.
bool crc32_folding_available() noexcept;

}  // namespace detail
}  // namespace dtio
