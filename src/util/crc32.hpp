// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8.
//
// Used as the frame checksum of the message-passing runtime (corrupted
// payloads must be *detected*, not mis-parsed; every frame is checksummed
// once at each end) and as the integrity check of checkpoint sections and
// spill files. Incremental: feed chunks via the seed parameter.
//
// Slice-by-8 folds eight input bytes per step through eight 256-entry
// tables, each derived from the classic bytewise table; the outputs are
// identical to the bytewise algorithm for every input and seed. Input words
// are assembled from individual bytes (no pointer casts), so the code is
// endian-neutral and free of alignment or aliasing assumptions; compilers
// fuse the byte loads into single word loads.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace scalparc::util {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

// kCrc32Slices[k][b] is the CRC register after feeding byte b followed by k
// zero bytes: slice k accounts for a byte sitting k positions before the end
// of an 8-byte step.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> slices{};
  slices[0] = kCrc32Table;
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = slices[k - 1][i];
      slices[k][i] = (prev >> 8) ^ kCrc32Table[prev & 0xFFu];
    }
  }
  return slices;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Slices =
    make_crc32_slices();

// Little-endian 32-bit word from four bytes, independent of host order.
constexpr std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace detail

// Accumulating form: pass the previous return value as `seed` to continue a
// running checksum over multiple chunks (seed 0 starts a fresh one).
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  const auto& t = detail::kCrc32Slices;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {  // tail: fewer than 8 bytes
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::span<const std::byte> data,
                           std::uint32_t seed = 0) {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace scalparc::util
