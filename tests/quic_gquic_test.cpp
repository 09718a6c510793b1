#include "quic/gquic.hpp"

#include <gtest/gtest.h>

#include "quic/dissector.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand::quic {
namespace {

ConnectionId cid8(util::Rng& rng) { return ConnectionId(rng.bytes(8)); }

TEST(Gquic, BuildParseRoundTripClientPacket) {
  util::Rng rng(1);
  const auto cid = cid8(rng);
  const auto payload = rng.bytes(200);
  // Client packet: version present (Q050).
  const auto packet = build_gquic_packet(cid, 0x51303530, 7, payload);
  const auto view = parse_gquic_packet(packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_TRUE(view->has_version);
  EXPECT_EQ(view->version, 0x51303530u);
  EXPECT_EQ(ConnectionId(view->connection_id), cid);
  EXPECT_EQ(view->packet_number, 7u);
  EXPECT_EQ(view->packet_number_length, 1);
  EXPECT_EQ(view->payload_size, payload.size());
  EXPECT_EQ(view->header_size + view->payload_size, packet.size());
}

TEST(Gquic, ServerResponseOmitsVersion) {
  util::Rng rng(2);
  const auto cid = cid8(rng);
  const auto packet = build_gquic_server_response(cid, 42, 300, rng);
  const auto view = parse_gquic_packet(packet);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->has_version);
  EXPECT_EQ(view->version, 0u);
  EXPECT_EQ(ConnectionId(view->connection_id), cid);
  EXPECT_EQ(view->packet_number, 42u);
  EXPECT_GE(view->payload_size, 300u);
}

TEST(Gquic, PacketNumberEncodingWidths) {
  util::Rng rng(3);
  const auto cid = cid8(rng);
  const auto payload = rng.bytes(20);
  struct Case {
    std::uint64_t pn;
    int expected_length;
  };
  for (const Case c : {Case{5, 1}, Case{0x1234, 2}, Case{0x123456, 4},
                       Case{0x11223344556ULL, 6}}) {
    const auto packet = build_gquic_packet(cid, 0, c.pn, payload);
    const auto view = parse_gquic_packet(packet);
    ASSERT_TRUE(view.has_value()) << c.pn;
    EXPECT_EQ(view->packet_number, c.pn);
    EXPECT_EQ(view->packet_number_length, c.expected_length);
  }
}

TEST(Gquic, RejectsInvalidInput) {
  util::Rng rng(4);
  // Long-header form bit set.
  EXPECT_FALSE(parse_gquic_packet(std::vector<std::uint8_t>{0x88, 1, 2})
                   .has_value());
  // No connection id flag.
  std::vector<std::uint8_t> no_cid(32, 0);
  no_cid[0] = 0x00;
  EXPECT_FALSE(parse_gquic_packet(no_cid).has_value());
  // Version flag set but not an ASCII 'Q' version.
  std::vector<std::uint8_t> bad_version = {0x09, 1, 2, 3, 4, 5, 6, 7, 8,
                                           0xde, 0xad, 0xbe, 0xef};
  bad_version.resize(40, 0);
  EXPECT_FALSE(parse_gquic_packet(bad_version).has_value());
  // Truncated after the flags byte.
  EXPECT_FALSE(parse_gquic_packet(std::vector<std::uint8_t>{0x08, 1})
                   .has_value());
  // Data packet with a too-small payload.
  const auto tiny = build_gquic_packet(cid8(rng), 0, 1, rng.bytes(4));
  EXPECT_FALSE(parse_gquic_packet(tiny).has_value());
}

TEST(Gquic, BuildRejectsBadArguments) {
  util::Rng rng(5);
  const auto payload = rng.bytes(20);
  EXPECT_THROW(build_gquic_packet(ConnectionId(rng.bytes(4)), 0, 1, payload),
               std::invalid_argument);
  EXPECT_THROW(build_gquic_packet(cid8(rng), 0, 1ULL << 50, payload),
               std::invalid_argument);
}

TEST(Gquic, DissectorClassifiesServerResponse) {
  util::Rng rng(6);
  const auto packet = build_gquic_server_response(cid8(rng), 9, 250, rng);
  const auto result = dissect_udp_payload(packet);
  ASSERT_TRUE(result.is_quic) << result.reject_reason;
  ASSERT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.packets[0].kind, QuicPacketKind::kGquic);
  EXPECT_EQ(result.packets[0].version, 0u);  // server: no version on wire
  EXPECT_EQ(result.packets[0].dcid.size(), 8u);
}

TEST(Gquic, DissectorClassifiesVersionedClientPacket) {
  util::Rng rng(7);
  const auto packet =
      build_gquic_packet(cid8(rng), 0x51303433, 1, rng.bytes(1000));
  const auto result = dissect_udp_payload(packet);
  ASSERT_TRUE(result.is_quic) << result.reject_reason;
  EXPECT_EQ(result.packets[0].kind, QuicPacketKind::kGquic);
}

TEST(Gquic, DissectorStillRejectsDns) {
  const std::vector<std::uint8_t> dns = {0x12, 0x34, 0x81, 0x80,
                                         0x00, 0x01, 0x00, 0x01};
  EXPECT_FALSE(dissect_udp_payload(dns).is_quic);
}

TEST(Gquic, FuzzNeverThrows) {
  util::Rng rng(8);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto junk = rng.bytes(rng.uniform(100));
    ASSERT_NO_THROW((void)parse_gquic_packet(junk));
  }
}

}  // namespace
}  // namespace quicsand::quic
