#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

namespace owlcl {
namespace {

/// The classic one-table bytewise CRC32 — the reference the slice-by-8
/// implementation must reproduce bit for bit.
std::uint32_t bytewiseCrc32(const unsigned char* p, std::size_t len,
                            std::uint32_t crc = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32, RunningCrcMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t oneShot = crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t first = crc32(data.data(), split);
    EXPECT_EQ(crc32(data.data() + split, data.size() - split, first), oneShot)
        << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  unsigned char buf[64];
  for (std::size_t i = 0; i < sizeof(buf); ++i)
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint32_t clean = crc32(buf, sizeof(buf));
  for (std::size_t byte = 0; byte < sizeof(buf); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_NE(crc32(buf, sizeof(buf)), clean);
      buf[byte] ^= static_cast<unsigned char>(1u << bit);
    }
}

TEST(Crc32, SliceBy8MatchesBytewiseReference) {
  // Every length 0..257 from every start offset 0..7 (unaligned loads),
  // plus a chained checksum split at every point of the buffer.
  std::vector<unsigned char> buf(257 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 257; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), bytewiseCrc32(p, len))
          << "offset " << offset << " length " << len;
      const std::uint32_t seed = bytewiseCrc32(buf.data(), offset);
      ASSERT_EQ(crc32(p, len, seed), bytewiseCrc32(p, len, seed))
          << "chained, offset " << offset << " length " << len;
    }
  for (std::size_t split = 0; split <= 257; ++split) {
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, 257 - split, head),
              bytewiseCrc32(buf.data(), 257))
        << "split at " << split;
  }
}

}  // namespace
}  // namespace owlcl
