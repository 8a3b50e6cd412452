// Sliced CRC-32 (util/crc32.cc) against a bytewise reference: every length
// 0-2100 at every start alignment 0-7, and crc32_update split at every
// point of a 1 KiB buffer.  The zlib check values live in flute_test.cc.

#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"
#include "util/rng.h"

namespace fecsched {
namespace {

/// The classic byte-at-a-time CRC-32/ISO-HDLC (reflected 0xedb88320).
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> data) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t byte : data) c = table[(c ^ byte) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32Sliced, MatchesBytewiseAtEveryLengthAndAlignment) {
  const auto buf = random_bytes(2100 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 2100; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), bytewise_crc32(data))
          << "offset " << offset << " length " << len;
    }
}

TEST(Crc32Sliced, AllOnesAndZerosMatchBytewise) {
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
    const std::vector<std::uint8_t> buf(1100, fill);
    for (std::size_t len = 0; len <= buf.size(); len += 11)
      ASSERT_EQ(crc32({buf.data(), len}), bytewise_crc32({buf.data(), len}));
  }
}

TEST(Crc32Sliced, UpdateSplitAtEveryPointMatchesWhole) {
  const auto buf = random_bytes(1024, 2);
  const std::span<const std::uint8_t> data(buf);
  const std::uint32_t whole = bytewise_crc32(data);
  ASSERT_EQ(crc32(data), whole);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = crc32_update(0, data.first(split));
    ASSERT_EQ(crc32_update(head, data.subspan(split)), whole) << split;
  }
}

}  // namespace
}  // namespace fecsched
