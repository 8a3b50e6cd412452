#include "util/crc32.h"

#include <array>

namespace fecsched {

namespace {

// Slice-by-16 (Kounavis & Berry's slicing, widened): kTables[0] is the
// classic byte-at-a-time table and kTables[t][b] is the CRC register after
// byte b followed by t zero bytes, so each 16-byte step folds its bytes in
// with 16 independent lookups instead of a serial chain of 16.  The tables
// (16 KiB) are built at compile time.
constexpr std::size_t kSlices = 16;
using Tables = std::array<std::array<std::uint32_t, 256>, kSlices>;

constexpr Tables build_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < kSlices; ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[s][i] = t[0][t[s - 1][i] & 0xffu] ^ (t[s - 1][i] >> 8);
  return t;
}

constexpr Tables kTables = build_tables();

/// Little-endian 32-bit load, independent of host byte order.
constexpr std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) noexcept {
  const Tables& t = kTables;
  std::uint32_t c = crc ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  for (; len >= kSlices; p += kSlices, len -= kSlices) {
    // Byte j of the step has 15 - j bytes after it: table 15 - j.
    const std::uint32_t w0 = c ^ load_le32(p);
    const std::uint32_t w1 = load_le32(p + 4);
    const std::uint32_t w2 = load_le32(p + 8);
    const std::uint32_t w3 = load_le32(p + 12);
    c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
        t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
        t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
        t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
        t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_update(0, data);
}

}  // namespace fecsched
