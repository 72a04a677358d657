// CRC32 (IEEE 802.3, polynomial 0xEDB88320) — the integrity check behind
// the crash-consistency layer: every journal record and snapshot file
// carries a CRC so recovery can tell a torn or bit-flipped write from a
// valid one (DESIGN.md §9).
//
// Header-only slice-by-8: eight 256-entry tables, built once on first use,
// fold eight input bytes per step; the tail runs bytewise on the first
// table. The output is bit-for-bit the classic bytewise table CRC.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace owlcl {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the bytewise table; t[k][i] is the CRC of byte i followed by k
/// zero bytes, so t[k] advances a byte that sits k positions earlier.
inline const Crc32Tables& crc32Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::uint32_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
  }();
  return tables;
}

inline std::uint32_t loadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Running CRC32: pass the previous return value as `crc` to extend a
/// checksum over multiple buffers; start (and finish) with the default.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t crc = 0) {
  const auto& t = detail::crc32Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = detail::loadLe32(p) ^ c;
    const std::uint32_t hi = detail::loadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace owlcl
