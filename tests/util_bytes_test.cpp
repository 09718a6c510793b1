#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>

namespace quicsand::util {
namespace {

TEST(ByteReader, ReadsBigEndianIntegers) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03, 0x04, 0x05,
                               0x06, 0x07, 0x08, 0x09};
  ByteReader r(data);
  EXPECT_EQ(r.read_u8(), 0x01);
  EXPECT_EQ(r.read_u16().to_host(), 0x0203);
  EXPECT_EQ(r.read_u24(), 0x040506);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.read_u8(), 0x07);
}

TEST(ByteReader, ReadU32AndU64) {
  const std::uint8_t data[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x00,
                               0x00, 0x00, 0x00, 0x00, 0x00, 0x2a};
  ByteReader r(data);
  EXPECT_EQ(r.read_u32().to_host(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 42u);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, ThrowsOnUnderflow) {
  const std::uint8_t data[] = {0x01};
  ByteReader r(data);
  EXPECT_THROW(r.read_u16(), BufferUnderflow);
  // Failed read must not consume anything.
  EXPECT_EQ(r.read_u8(), 0x01);
  EXPECT_THROW(r.read_u8(), BufferUnderflow);
}

TEST(ByteReader, PeekDoesNotConsume) {
  const std::uint8_t data[] = {0xab, 0xcd};
  ByteReader r(data);
  EXPECT_EQ(r.peek_u8(), 0xab);
  EXPECT_EQ(r.peek_u8(), 0xab);
  EXPECT_EQ(r.read_u16().to_host(), 0xabcd);
}

TEST(ByteReader, ReadBytesAndRest) {
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  ByteReader r(data);
  auto head = r.read_bytes(2);
  ASSERT_EQ(head.size(), 2u);
  EXPECT_EQ(head[1], 2);
  auto rest = r.rest();
  ASSERT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[0], 3);
}

TEST(ByteWriter, RoundTripsThroughReader) {
  ByteWriter w;
  w.write_u8(0x7f);
  w.write_u16(0xbeef);
  w.write_u32(123456789);
  w.write_u64(0x0123456789abcdefULL);
  ByteReader r(w.view());
  EXPECT_EQ(r.read_u8(), 0x7f);
  EXPECT_EQ(r.read_u16().to_host(), 0xbeef);
  EXPECT_EQ(r.read_u32().to_host(), 123456789u);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
}

TEST(ByteWriter, PatchBeOverwritesInPlace) {
  ByteWriter w;
  w.write_u32(0);
  w.write_u8(0xaa);
  w.patch_be(0, 0xcafe, 4);
  ByteReader r(w.view());
  EXPECT_EQ(r.read_u32().to_host(), 0xcafeu);
  EXPECT_EQ(r.read_u8(), 0xaa);
}

TEST(ByteWriter, PatchBeOutOfRangeThrows) {
  ByteWriter w;
  w.write_u16(0);
  EXPECT_THROW(w.patch_be(1, 0, 2), std::out_of_range);
}

TEST(ByteWriter, WriteRepeated) {
  ByteWriter w;
  w.write_repeated(0x00, 5);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_EQ(w.view()[4], 0x00);
}

TEST(FixedOffsetLoads, ReadBigEndianAtOffset) {
  const std::uint8_t data[] = {0xff, 0x01, 0x02, 0x03, 0x04, 0xee};
  EXPECT_EQ(load_be16(data, 1), 0x0102);
  EXPECT_EQ(load_be32(data, 1), 0x01020304u);
  EXPECT_EQ(load_be32(data, 2), 0x020304eeu);
}

TEST(FixedOffsetStores, WriteBigEndianAtOffsetAndNothingElse) {
  std::uint8_t data[8] = {0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa};
  store_be16(data, 1, 0x0102);
  store_be32(data, 3, 0x03040506u);
  const std::uint8_t want[] = {0xaa, 0x01, 0x02, 0x03,
                               0x04, 0x05, 0x06, 0xaa};
  EXPECT_TRUE(std::equal(std::begin(data), std::end(data), want));
  EXPECT_EQ(load_be32(data, 3), 0x03040506u);
  EXPECT_EQ(load_native32(data, 3),
            std::endian::native == std::endian::little ? 0x06050403u
                                                       : 0x03040506u);
}

TEST(CopyShort, CopiesEveryLengthAndNothingPastIt) {
  std::uint8_t src[32];
  for (int i = 0; i < 32; ++i) src[i] = static_cast<std::uint8_t>(i + 1);
  for (std::size_t n = 0; n <= 32; ++n) {
    std::uint8_t dst[40] = {};
    copy_short(dst, std::span<const std::uint8_t>(src, n));
    for (std::size_t i = 0; i < 40; ++i) {
      ASSERT_EQ(dst[i], i < n ? src[i] : 0) << "n=" << n << " i=" << i;
    }
  }
  copy_short(std::span<std::uint8_t>{}, {});  // empty, null data
  std::uint8_t small[4];
  EXPECT_THROW(copy_short(small, std::span<const std::uint8_t>(src, 5)),
               std::out_of_range);
}

TEST(Hex, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0xff, 0x10, 0xab};
  EXPECT_EQ(to_hex(data), "00ff10ab");
  auto back = from_hex("00ff10ab");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Hex, AcceptsUpperCase) {
  auto v = from_hex("DEADBEEF");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(to_hex(*v), "deadbeef");
}

TEST(Hex, RejectsMalformedInput) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // non-hex
  EXPECT_THROW(from_hex_strict("q0"), std::invalid_argument);
}

TEST(Hex, EmptyStringIsEmptyVector) {
  auto v = from_hex("");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->empty());
}

}  // namespace
}  // namespace quicsand::util
