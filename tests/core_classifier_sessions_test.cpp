#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "core/sessions.hpp"
#include "net/headers.hpp"
#include "quic/packets.hpp"
#include "util/rng.hpp"

namespace quicsand::core {
namespace {

const net::Ipv4Address kTelescopeAddr =
    net::Ipv4Address::from_octets(44, 1, 2, 3);
const net::Ipv4Address kOutside =
    net::Ipv4Address::from_octets(142, 250, 1, 1);

// All synthetic packets are timed relative to the epoch origin.
constexpr util::Timestamp kT0{};

util::Rng& rng() {
  static util::Rng instance(1234);
  return instance;
}

net::RawPacket quic_request(util::Timestamp t,
                            net::Ipv4Address src = kOutside,
                            std::uint16_t sport = 55555) {
  const auto ctx = quic::HandshakeContext::random(1, rng());
  const auto payload = quic::build_client_initial(
      ctx, "example.org", rng(), quic::CryptoFidelity::kFast);
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = kTelescopeAddr;
  return {t, net::build_udp(ip, sport, 443, payload)};
}

net::RawPacket quic_response(util::Timestamp t,
                             net::Ipv4Address src = kOutside,
                             net::Ipv4Address dst = kTelescopeAddr,
                             std::uint16_t dport = 40000,
                             std::uint32_t version = 1) {
  const auto ctx = quic::HandshakeContext::random(version, rng());
  const auto payload = quic::build_server_initial_handshake(
      ctx, rng(), quic::CryptoFidelity::kFast);
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  return {t, net::build_udp(ip, 443, dport, payload)};
}

TEST(ClassifierTest, QuicRequestAndResponse) {
  Classifier classifier({});
  const auto request = classifier.classify(quic_request(kT0));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->cls, TrafficClass::kQuicRequest);
  EXPECT_EQ(request->quic_version, 1u);
  EXPECT_EQ(request->quic_packet_count, 1);
  EXPECT_FALSE(request->is_research);

  const auto response = classifier.classify(quic_response(kT0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->cls, TrafficClass::kQuicResponse);
  EXPECT_EQ(response->quic_packet_count, 2);  // coalesced Initial+Handshake
  EXPECT_TRUE(response->has_scid);
  EXPECT_NE(response->scid_hash, 0u);
  EXPECT_EQ(response->kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kInitial)],
            1);
  EXPECT_EQ(response->kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kHandshake)],
            1);
}

TEST(ClassifierTest, ResearchPrefixFlagging) {
  ClassifierConfig config;
  config.research_prefixes.push_back(
      *net::Ipv4Prefix::parse("138.246.0.0/16"));
  Classifier classifier(config);
  const auto flagged = classifier.classify(
      quic_request(kT0, net::Ipv4Address::from_octets(138, 246, 0, 32)));
  ASSERT_TRUE(flagged.has_value());
  EXPECT_TRUE(flagged->is_research);
  EXPECT_EQ(classifier.stats().research, 1u);
  const auto normal = classifier.classify(quic_request(kT0));
  EXPECT_FALSE(normal->is_research);
  EXPECT_EQ(classifier.stats().sanitized_quic(), 1u);
}

TEST(ClassifierTest, NonQuicUdp443Rejected) {
  Classifier classifier({});
  net::Ipv4Header ip;
  ip.src = kOutside;
  ip.dst = kTelescopeAddr;
  const std::vector<std::uint8_t> dns = {0x12, 0x34, 0x01, 0x00,
                                         0x00, 0x01, 0x00, 0x00};
  const auto record =
      classifier.classify({kT0, net::build_udp(ip, 443, 53000, dns)});
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->cls, TrafficClass::kOther);
  EXPECT_EQ(classifier.stats().quic_port_rejects, 1u);
}

TEST(ClassifierTest, UdpOffPort443IsOther) {
  Classifier classifier({});
  net::Ipv4Header ip;
  ip.src = kOutside;
  ip.dst = kTelescopeAddr;
  const auto record = classifier.classify(
      {kT0, net::build_udp(ip, 5000, 6000, std::vector<std::uint8_t>{0xc0})});
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->cls, TrafficClass::kOther);
  EXPECT_EQ(classifier.stats().quic_port_rejects, 0u);
}

TEST(ClassifierTest, TcpFlagClassification) {
  Classifier classifier({});
  net::Ipv4Header ip;
  ip.src = kOutside;
  ip.dst = kTelescopeAddr;
  net::TcpInfo syn;
  syn.src_port = 4000;
  syn.dst_port = 443;
  syn.flags = net::TcpFlags::kSyn;
  EXPECT_EQ(classifier.classify({kT0, net::build_tcp(ip, syn)})->cls,
            TrafficClass::kTcpRequest);
  net::TcpInfo synack = syn;
  synack.flags = net::TcpFlags::kSyn | net::TcpFlags::kAck;
  EXPECT_EQ(classifier.classify({kT0, net::build_tcp(ip, synack)})->cls,
            TrafficClass::kTcpBackscatter);
  net::TcpInfo rst = syn;
  rst.flags = net::TcpFlags::kRst;
  EXPECT_EQ(classifier.classify({kT0, net::build_tcp(ip, rst)})->cls,
            TrafficClass::kTcpBackscatter);
  net::TcpInfo ack = syn;
  ack.flags = net::TcpFlags::kAck;
  EXPECT_EQ(classifier.classify({kT0, net::build_tcp(ip, ack)})->cls,
            TrafficClass::kOther);
}

TEST(ClassifierTest, IcmpClassification) {
  Classifier classifier({});
  net::Ipv4Header ip;
  ip.src = kOutside;
  ip.dst = kTelescopeAddr;
  net::IcmpInfo echo_reply;
  echo_reply.type = 0;
  EXPECT_EQ(classifier.classify({kT0, net::build_icmp(ip, echo_reply)})->cls,
            TrafficClass::kIcmpBackscatter);
  net::IcmpInfo unreachable;
  unreachable.type = 3;
  unreachable.code = 1;
  EXPECT_EQ(classifier.classify({kT0, net::build_icmp(ip, unreachable)})->cls,
            TrafficClass::kIcmpBackscatter);
  net::IcmpInfo echo_request;
  echo_request.type = 8;
  EXPECT_EQ(classifier.classify({kT0, net::build_icmp(ip, echo_request)})->cls,
            TrafficClass::kOther);
}

TEST(ClassifierTest, UndecodableCounted) {
  Classifier classifier({});
  EXPECT_FALSE(classifier.classify({kT0, {0x45, 0x00}}).has_value());
  EXPECT_EQ(classifier.stats().undecodable, 1u);
  EXPECT_EQ(classifier.stats().total, 1u);
}

// 300 coalesced 28-byte Handshake packets (empty CIDs, Length 20): more
// QUIC packets than the record's 8-bit counts hold. They used to wrap to
// 300 mod 256 = 44.
TEST(ClassifierTest, QuicCountsSaturateAt255) {
  util::ByteWriter payload;
  for (int i = 0; i < 300; ++i) {
    payload.write_u8(0xe0);  // long header, fixed bit, Handshake
    payload.write_u32(1);
    payload.write_u8(0);     // DCID length
    payload.write_u8(0);     // SCID length
    payload.write_u8(20);    // Length: PN + payload
    payload.write_repeated(0xab, 20);
  }
  ASSERT_EQ(payload.size(), 8400u);
  net::Ipv4Header ip;
  ip.src = kOutside;
  ip.dst = kTelescopeAddr;
  Classifier classifier({});
  const auto record =
      classifier.classify({kT0, net::build_udp(ip, 443, 40000, payload.view())});
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->cls, TrafficClass::kQuicResponse);
  EXPECT_EQ(record->quic_packet_count, 255);
  EXPECT_EQ(record->kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kHandshake)],
            255);
  EXPECT_EQ(record->quic_version, 1u);

  // The session built from it counts 255 Handshakes, not 44.
  const std::vector<PacketRecord> records = {*record};
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, RecordFilter::kQuicResponses);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kHandshake)],
            255u);
}

// A capture longer than 65,535 bytes whose IPv4 header declares a
// 1,000-byte datagram: the record's size is the datagram's, not the
// capture's (which used to wrap to 70,000 mod 65,536 = 4,464).
TEST(ClassifierTest, WireSizeIsIpv4TotalLength) {
  net::Ipv4Header ip;
  ip.src = kOutside;
  ip.dst = kTelescopeAddr;
  auto datagram =
      net::build_udp(ip, 443, 40000, std::vector<std::uint8_t>(972, 0x5a));
  ASSERT_EQ(datagram.size(), 1000u);
  datagram.resize(70000, 0x00);
  Classifier classifier({});
  const auto record = classifier.classify({kT0, datagram});
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->wire_size, 1000u);

  // Ethernet-style trailer padding after a short datagram is not counted.
  auto padded = net::build_udp(ip, 5000, 6000, std::vector<std::uint8_t>(4));
  padded.resize(padded.size() + 14, 0x00);
  EXPECT_EQ(classifier.classify({kT0, padded})->wire_size, 32u);
}

std::vector<PacketRecord> classify_all(std::vector<net::RawPacket> packets) {
  Classifier classifier({});
  std::vector<PacketRecord> records;
  for (const auto& packet : packets) {
    const auto record = classifier.classify(packet);
    if (record) records.push_back(*record);
  }
  return records;
}

TEST(SessionsTest, TimeoutSplitsSessions) {
  const auto src = net::Ipv4Address::from_octets(98, 0, 0, 1);
  const auto records = classify_all({
      quic_request(kT0, src),
      quic_request(kT0 + util::kMinute, src),
      quic_request(kT0 + 10 * util::kMinute, src),  // > 5 min gap: new session
  });
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].packets.count(), 2u);
  EXPECT_EQ(sessions[1].packets.count(), 1u);
  EXPECT_EQ(sessions[0].duration(), util::kMinute);
}

TEST(SessionsTest, SourcesAreIndependent) {
  const auto a = net::Ipv4Address::from_octets(98, 0, 0, 1);
  const auto b = net::Ipv4Address::from_octets(98, 0, 0, 2);
  const auto records = classify_all({
      quic_request(kT0, a),
      quic_request(kT0 + util::kSecond, b),
      quic_request(kT0 + 2 * util::kSecond, a),
  });
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(sessions.size(), 2u);
}

TEST(SessionsTest, AggregatesDistinctCountsAndVersions) {
  const auto victim = net::Ipv4Address::from_octets(142, 250, 1, 1);
  std::vector<net::RawPacket> packets;
  // Same victim, 3 distinct telescope peers, 4 ports, draft-29.
  packets.push_back(quic_response(
      kT0, victim, net::Ipv4Address::from_octets(44, 0, 0, 1), 1000,
      0xff00001d));
  packets.push_back(quic_response(
      kT0 + util::kSecond, victim, net::Ipv4Address::from_octets(44, 0, 0, 1),
      1001, 0xff00001d));
  packets.push_back(quic_response(
      kT0 + 2 * util::kSecond, victim, net::Ipv4Address::from_octets(44, 0, 0, 2),
      1000, 0xff00001d));
  packets.push_back(quic_response(
      kT0 + 3 * util::kSecond, victim, net::Ipv4Address::from_octets(44, 0, 0, 3),
      1002, 0xff00001d));
  const auto records = classify_all(std::move(packets));
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_response_filter());
  ASSERT_EQ(sessions.size(), 1u);
  const auto& session = sessions[0];
  EXPECT_EQ(session.packets.count(), 4u);
  EXPECT_EQ(session.peers.size(), 3u);
  EXPECT_EQ(session.peer_ports.size(), 4u);
  EXPECT_EQ(session.scids.size(), 4u);  // fresh SCID per handshake
  EXPECT_EQ(session.dominant_version(), 0xff00001du);
  EXPECT_EQ(session.kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kInitial)],
            4u);
}

TEST(SessionsTest, PeakPpsUsesMinuteBins) {
  const auto src = net::Ipv4Address::from_octets(98, 0, 0, 9);
  std::vector<net::RawPacket> packets;
  // 120 packets in minute 0, 6 in minute 2.
  for (int i = 0; i < 120; ++i) {
    packets.push_back(quic_request(kT0 + i * util::kSecond / 2, src));
  }
  for (int i = 0; i < 6; ++i) {
    packets.push_back(
        quic_request(kT0 + (2 * util::kMinute) + (i * util::kSecond), src));
  }
  const auto records = classify_all(std::move(packets));
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_NEAR(sessions[0].peak_pps().count(), 2.0, 0.01);
}

TEST(SessionsTest, FiltersSeparateClasses) {
  const auto records = classify_all({
      quic_request(kT0),
      quic_response(kT0 + util::kSecond,
                    net::Ipv4Address::from_octets(157, 240, 1, 1)),
  });
  EXPECT_EQ(
      build_sessions(records, util::kMinute, quic_request_filter()).size(),
      1u);
  EXPECT_EQ(
      build_sessions(records, util::kMinute, quic_response_filter()).size(),
      1u);
  EXPECT_EQ(build_sessions(records, util::kMinute,
                           common_backscatter_filter())
                .size(),
            0u);
}

TEST(SessionsTest, TimeoutSweepMatchesBuildSessions) {
  const auto src = net::Ipv4Address::from_octets(98, 0, 0, 1);
  std::vector<net::RawPacket> packets;
  for (int i = 0; i < 20; ++i) {
    packets.push_back(quic_request(kT0 + i * 3 * util::kMinute, src));
  }
  packets.push_back(
      quic_request(kT0 + 100 * util::kMinute,
                   net::Ipv4Address::from_octets(98, 0, 0, 2)));
  const auto records = classify_all(std::move(packets));

  const util::Duration timeouts[] = {util::kMinute, 5 * util::kMinute,
                                     60 * util::kMinute};
  const auto sweep =
      timeout_sweep(records, timeouts, quic_request_filter());
  ASSERT_EQ(sweep.size(), 3u);
  for (const auto& [timeout, count] : sweep) {
    EXPECT_EQ(count,
              build_sessions(records, timeout, quic_request_filter()).size())
        << "timeout " << timeout.count();
  }
  // Monotone decreasing in the timeout.
  EXPECT_GE(sweep[0].second, sweep[1].second);
  EXPECT_GE(sweep[1].second, sweep[2].second);
}

TEST(SessionsTest, LateTimestampCountsInFirstMinuteSlot) {
  // Two minutes older than its session's start: the record counts in
  // minute slot 0 and leaves `end` where it was.
  const auto src = net::Ipv4Address::from_octets(98, 0, 0, 1);
  const auto records = classify_all({
      quic_request(kT0 + 10 * util::kMinute, src),
      quic_request(kT0 + 8 * util::kMinute, src),
  });
  std::vector<Session> sessions;
  ASSERT_NO_THROW(sessions = build_sessions(records, 5 * util::kMinute,
                                            quic_request_filter()));
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].packets.count(), 2u);
  EXPECT_EQ(sessions[0].start, kT0 + 10 * util::kMinute);
  EXPECT_EQ(sessions[0].end, kT0 + 10 * util::kMinute);
  EXPECT_EQ(sessions[0].minute_counts, std::vector<std::uint32_t>{2});
}

TEST(SessionsTest, TrafficClassNames) {
  EXPECT_STREQ(traffic_class_name(TrafficClass::kQuicRequest),
               "quic-request");
  EXPECT_STREQ(traffic_class_name(TrafficClass::kIcmpBackscatter),
               "icmp-backscatter");
}

}  // namespace
}  // namespace quicsand::core
