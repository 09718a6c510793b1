#include "quic/header.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "quic/varint.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand::quic {
namespace {

using util::from_hex_strict;

ConnectionId cid(const char* hex) {
  return ConnectionId(from_hex_strict(hex));
}

TEST(ConnectionIdTest, BasicProperties) {
  const auto empty = ConnectionId();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  const auto a = cid("8394c8f03e515708");
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a.to_hex(), "8394c8f03e515708");
  EXPECT_EQ(a, cid("8394c8f03e515708"));
  EXPECT_NE(a, cid("8394c8f03e515709"));
  EXPECT_NE(a, cid("8394c8f03e5157"));
}

TEST(ConnectionIdTest, RejectsOversized) {
  const std::vector<std::uint8_t> too_long(21, 0);
  EXPECT_THROW(ConnectionId id(too_long), std::invalid_argument);
  const std::vector<std::uint8_t> max(20, 0xab);
  EXPECT_NO_THROW(ConnectionId id(max));
}

TEST(ConnectionIdTest, HoldsEveryLengthExactly) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t n = 0; n <= ConnectionId::kMaxSize; ++n) {
    const ConnectionId id(bytes);
    ASSERT_EQ(id.size(), n);
    EXPECT_TRUE(std::equal(id.bytes().begin(), id.bytes().end(),
                           bytes.begin(), bytes.end()));
    // One byte more is a different ID, also when that byte is zero.
    bytes.push_back(static_cast<std::uint8_t>(n == 10 ? 0 : 0xa0 + n));
    if (n < ConnectionId::kMaxSize) {
      EXPECT_NE(id, ConnectionId(bytes));
    }
  }
}

TEST(ConnectionIdTest, HashAndOrdering) {
  const auto a = cid("01");
  const auto b = cid("02");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_LT(a, b);
  EXPECT_LT(cid("01"), cid("0100"));  // prefix orders first
}

LongHeader sample_header(PacketType type = PacketType::kInitial) {
  LongHeader hdr;
  hdr.type = type;
  hdr.version = 1;
  hdr.dcid = cid("8394c8f03e515708");
  hdr.scid = cid("f0e1d2c3");
  hdr.packet_number = 0x1234;
  hdr.packet_number_length = 4;
  return hdr;
}

TEST(EncodeLongHeader, LayoutAndOffsets) {
  const auto hdr = sample_header();
  const auto enc = encode_long_header(hdr);
  // first byte: 0b1100_0011 = long | fixed | initial | pn_len-1=3
  EXPECT_EQ(enc.bytes[0], 0xc3);
  // version
  EXPECT_EQ(enc.bytes[1], 0x00);
  EXPECT_EQ(enc.bytes[4], 0x01);
  // dcid_len
  EXPECT_EQ(enc.bytes[5], 8);
  // token length varint (0) follows cids
  const std::size_t token_len_offset = 1 + 4 + 1 + 8 + 1 + 4;
  EXPECT_EQ(enc.bytes[token_len_offset], 0x00);
  EXPECT_EQ(enc.length_offset, token_len_offset + 1);
  EXPECT_EQ(enc.pn_offset, enc.length_offset + 2);
  EXPECT_EQ(enc.bytes.size(), enc.pn_offset + 4);
  // pn encoded big-endian
  EXPECT_EQ(enc.bytes[enc.pn_offset + 2], 0x12);
  EXPECT_EQ(enc.bytes[enc.pn_offset + 3], 0x34);
}

TEST(EncodeLongHeader, HandshakeHasNoToken) {
  const auto enc = encode_long_header(sample_header(PacketType::kHandshake));
  EXPECT_EQ((enc.bytes[0] >> 4) & 3, 2);
  // length field directly after scid
  EXPECT_EQ(enc.length_offset, 1u + 4 + 1 + 8 + 1 + 4);
}

TEST(EncodeLongHeader, TokenIsEncoded) {
  auto hdr = sample_header();
  hdr.token = {0xaa, 0xbb, 0xcc};
  const auto enc = encode_long_header(hdr);
  const std::size_t token_len_offset = 1 + 4 + 1 + 8 + 1 + 4;
  EXPECT_EQ(enc.bytes[token_len_offset], 3);
  EXPECT_EQ(enc.bytes[token_len_offset + 1], 0xaa);
}

TEST(EncodeLongHeader, RejectsRetryAndBadPnLen) {
  EXPECT_THROW(encode_long_header(sample_header(PacketType::kRetry)),
               std::invalid_argument);
  auto hdr = sample_header();
  hdr.packet_number_length = 5;
  EXPECT_THROW(encode_long_header(hdr), std::invalid_argument);
  hdr.packet_number_length = 0;
  EXPECT_THROW(encode_long_header(hdr), std::invalid_argument);
}

/// Build header bytes + fake protected body of `body` bytes with a
/// patched length field, as a protected packet would look.
std::vector<std::uint8_t> protected_packet(const LongHeader& hdr,
                                           std::size_t body) {
  auto enc = encode_long_header(hdr);
  util::ByteWriter w;
  w.write_bytes(enc.bytes);
  const std::size_t pn_len = static_cast<std::size_t>(hdr.packet_number_length);
  w.patch_be(enc.length_offset, 0x4000 | (pn_len + body), 2);
  w.write_repeated(0x5a, body);
  return w.take();
}

TEST(ParseLongHeader, RoundTripsInitial) {
  auto hdr = sample_header();
  hdr.token = {1, 2, 3, 4, 5};
  const auto pkt = protected_packet(hdr, 40);
  const auto view = parse_long_header(pkt, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, PacketType::kInitial);
  EXPECT_EQ(view->version, 1u);
  EXPECT_EQ(ConnectionId(view->dcid), hdr.dcid);
  EXPECT_EQ(ConnectionId(view->scid), hdr.scid);
  EXPECT_EQ(view->token_length, 5u);
  EXPECT_EQ(view->length, 44u);  // pn(4) + body(40)
  EXPECT_EQ(view->packet_start, 0u);
  EXPECT_EQ(view->packet_end, pkt.size());
  EXPECT_EQ(view->pn_offset, pkt.size() - 44);
}

TEST(ParseLongHeader, RoundTripsHandshake) {
  const auto pkt = protected_packet(sample_header(PacketType::kHandshake), 30);
  const auto view = parse_long_header(pkt, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, PacketType::kHandshake);
  EXPECT_EQ(view->token_length, 0u);
}

TEST(ParseLongHeader, ReportsErrors) {
  ParseError err{};
  // Not long header.
  const std::vector<std::uint8_t> short_hdr = {0x40, 1, 2, 3};
  EXPECT_FALSE(parse_long_header(short_hdr, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kNotLongHeader);
  // Fixed bit clear.
  const std::vector<std::uint8_t> no_fixed = {0x80, 0, 0, 0, 1, 0, 0};
  EXPECT_FALSE(parse_long_header(no_fixed, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kFixedBitClear);
  // Truncated.
  const std::vector<std::uint8_t> trunc = {0xc0, 0, 0};
  EXPECT_FALSE(parse_long_header(trunc, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kTruncated);
  // Offset past end.
  EXPECT_FALSE(parse_long_header(trunc, 10, &err).has_value());
  EXPECT_EQ(err, ParseError::kTruncated);
}

TEST(ParseLongHeader, RejectsOversizedCid) {
  std::vector<std::uint8_t> pkt = {0xc3, 0, 0, 0, 1, 21};
  pkt.resize(64, 0);
  ParseError err{};
  EXPECT_FALSE(parse_long_header(pkt, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kBadConnectionIdLength);
}

TEST(ParseLongHeader, RejectsLengthBeyondBuffer) {
  auto pkt = protected_packet(sample_header(), 40);
  pkt.resize(pkt.size() - 10);  // chop the body
  ParseError err{};
  EXPECT_FALSE(parse_long_header(pkt, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kBadLength);
}

TEST(ParseLongHeader, RejectsTinyLength) {
  // length < 20 cannot hold pn + tag.
  const auto pkt = protected_packet(sample_header(), 5);
  ParseError err{};
  EXPECT_FALSE(parse_long_header(pkt, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kBadLength);
}

TEST(ParseLongHeader, ParsesVersionNegotiation) {
  util::ByteWriter w;
  w.write_u8(0x80);
  w.write_u32(0);
  w.write_u8(4);
  w.write_bytes(from_hex_strict("aabbccdd"));
  w.write_u8(0);
  w.write_u32(1);
  w.write_u32(0xff00001d);
  const auto pkt = w.take();
  const auto view = parse_long_header(pkt, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->is_version_negotiation());
  EXPECT_EQ(ConnectionId(view->dcid).to_hex(), "aabbccdd");
  ASSERT_EQ(view->supported_versions.size(), 2u);
  EXPECT_EQ(view->supported_versions[0], 1u);
  EXPECT_EQ(view->supported_versions[1], 0xff00001du);
  EXPECT_EQ(view->packet_end, pkt.size());
}

TEST(ParseLongHeader, RejectsEmptyVersionNegotiation) {
  util::ByteWriter w;
  w.write_u8(0x80);
  w.write_u32(0);
  w.write_u8(0);
  w.write_u8(0);
  const auto pkt = w.take();
  ParseError err{};
  EXPECT_FALSE(parse_long_header(pkt, 0, &err).has_value());
  EXPECT_EQ(err, ParseError::kBadLength);
}

TEST(ParseLongHeader, ParsesRetry) {
  util::ByteWriter w;
  w.write_u8(0xf0);  // long | fixed | retry
  w.write_u32(1);
  w.write_u8(0);   // dcid
  w.write_u8(8);   // scid
  w.write_bytes(from_hex_strict("1122334455667788"));
  w.write_repeated(0x77, 24);  // token
  w.write_repeated(0xee, 16);  // integrity tag
  const auto pkt = w.take();
  const auto view = parse_long_header(pkt, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, PacketType::kRetry);
  EXPECT_EQ(view->retry_token.size(), 24u);
  EXPECT_EQ(view->packet_end, pkt.size());
}

TEST(ParseLongHeader, ParsesAtNonZeroOffset) {
  const auto first = protected_packet(sample_header(), 25);
  const auto second = protected_packet(sample_header(PacketType::kHandshake), 30);
  std::vector<std::uint8_t> coalesced = first;
  coalesced.insert(coalesced.end(), second.begin(), second.end());
  const auto v1 = parse_long_header(coalesced, 0);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->packet_end, first.size());
  const auto v2 = parse_long_header(coalesced, v1->packet_end);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->type, PacketType::kHandshake);
  EXPECT_EQ(v2->packet_start, first.size());
  EXPECT_EQ(v2->packet_end, coalesced.size());
}

TEST(PacketTypeNames, AllNamed) {
  EXPECT_STREQ(packet_type_name(PacketType::kInitial), "initial");
  EXPECT_STREQ(packet_type_name(PacketType::kZeroRtt), "0rtt");
  EXPECT_STREQ(packet_type_name(PacketType::kHandshake), "handshake");
  EXPECT_STREQ(packet_type_name(PacketType::kRetry), "retry");
}

}  // namespace
}  // namespace quicsand::quic
