// Unit tests for the individual packet emitters: wire-level invariants
// of the traffic each one produces.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/classifier.hpp"
#include "net/headers.hpp"
#include "quic/dissector.hpp"
#include "telescope/emitters.hpp"

namespace quicsand::telescope {
namespace {

ScenarioConfig tiny_scenario() {
  auto config = ScenarioConfig::april2021(1, 3);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 24};
  return config;
}

PlannedAttack quic_attack(const ScenarioConfig& config,
                          std::uint32_t version = 0xff00001d) {
  PlannedAttack attack;
  attack.protocol = AttackProtocol::kQuic;
  attack.victim = net::Ipv4Address::from_octets(142, 250, 7, 7);
  attack.quic_version = version;
  attack.start = config.start + util::kMinute;
  attack.duration = 5 * util::kMinute;
  attack.peak_pps = 2.0;
  return attack;
}

TEST(FlightProfileTest, MvfstHeavierThanIetf) {
  const auto mvfst = flight_profile(0xfaceb002);
  const auto ietf = flight_profile(0xff00001d);
  EXPECT_GT(mvfst.mean_datagrams, ietf.mean_datagrams);
  EXPECT_GT(mvfst.retx1, ietf.retx1);
  // Means are consistent with the probabilities.
  for (const auto& p : {mvfst, ietf}) {
    EXPECT_NEAR(p.mean_datagrams,
                2 + p.retx1 * (1 + p.retx2) + 2 * p.pings + p.reset, 1e-9);
  }
}

TEST(QuicBackscatterEmitterTest, WireInvariants) {
  const auto config = tiny_scenario();
  const auto attack = quic_attack(config);
  QuicBackscatterEmitter emitter(config, attack, 99);
  std::uint64_t packets = 0;
  util::Timestamp last{};
  std::set<std::uint32_t> clients;
  std::set<std::uint16_t> ports;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->src(), attack.victim);     // victim responds
    EXPECT_EQ(decoded->udp().src_port, 443);       // from the service port
    EXPECT_TRUE(config.telescope.contains(decoded->dst()));
    EXPECT_GE(packet->timestamp, last);
    last = packet->timestamp;
    EXPECT_GE(packet->timestamp, attack.start);
    clients.insert(decoded->dst().value());
    ports.insert(decoded->udp().dst_port);
    ++packets;
  }
  EXPECT_GT(packets, 100u);
  // Figure 9's shape: few spoofed client IPs, many randomized ports.
  EXPECT_LE(clients.size(), 19u);
  EXPECT_GT(ports.size(), clients.size());
}

TEST(QuicBackscatterEmitterTest, PacketsCarryTheAttackVersion) {
  const auto config = tiny_scenario();
  const auto attack = quic_attack(config, 0xfaceb002);
  QuicBackscatterEmitter emitter(config, attack, 5);
  std::map<std::uint32_t, int> versions;
  int checked = 0;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    const auto result = quic::dissect_udp_payload(decoded->udp().payload);
    ASSERT_TRUE(result.is_quic) << result.reject_reason;
    for (const auto& pkt : result.packets) {
      if (pkt.version != 0) ++versions[pkt.version];
    }
    if (++checked > 300) break;
  }
  // All versioned packets carry mvfst-draft-27 (VN lists it first).
  ASSERT_FALSE(versions.empty());
  EXPECT_GT(versions[0xfaceb002], 0);
}

TEST(QuicBackscatterEmitterTest, BudgetBoundsRunawayAttacks) {
  auto config = tiny_scenario();
  auto attack = quic_attack(config);
  attack.peak_pps = 100.0;                  // absurd rate
  attack.duration = 20 * util::kHour;       // absurd length
  QuicBackscatterEmitter emitter(config, attack, 7);
  std::uint64_t packets = 0;
  while (emitter.next()) ++packets;
  EXPECT_LE(packets, 60000u);
}

TEST(CommonBackscatterEmitterTest, TcpSynAckBursts) {
  const auto config = tiny_scenario();
  PlannedAttack attack;
  attack.protocol = AttackProtocol::kTcp;
  attack.victim = net::Ipv4Address::from_octets(98, 0, 0, 1);
  attack.start = config.start;
  attack.duration = 3 * util::kMinute;
  attack.peak_pps = 2.0;
  CommonBackscatterEmitter emitter(config, attack, 11);
  std::uint64_t packets = 0;
  std::map<std::pair<std::uint32_t, std::uint16_t>, int> per_connection;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(decoded->is_tcp());
    EXPECT_EQ(decoded->tcp().flags,
              net::TcpFlags::kSyn | net::TcpFlags::kAck);
    EXPECT_TRUE(decoded->tcp().src_port == 80 ||
                decoded->tcp().src_port == 443);
    ++per_connection[{decoded->dst().value(), decoded->tcp().dst_port}];
    ++packets;
  }
  EXPECT_GT(packets, 100u);
  // SYN-ACK retransmission bursts: 3-5 per spoofed connection.
  for (const auto& [connection, count] : per_connection) {
    EXPECT_GE(count, 1);
    EXPECT_LE(count, 5);
  }
}

TEST(CommonBackscatterEmitterTest, IcmpMixIncludesQuotedUnreachables) {
  const auto config = tiny_scenario();
  PlannedAttack attack;
  attack.protocol = AttackProtocol::kIcmp;
  attack.victim = net::Ipv4Address::from_octets(98, 0, 0, 2);
  attack.start = config.start;
  attack.duration = 10 * util::kMinute;
  attack.peak_pps = 3.0;
  CommonBackscatterEmitter emitter(config, attack, 13);
  int echo_replies = 0, unreachables = 0;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(decoded->is_icmp());
    if (decoded->icmp().type == 0) {
      ++echo_replies;
    } else if (decoded->icmp().type == 3) {
      ++unreachables;
      const auto quote = net::parse_icmp_quote(decoded->icmp().payload);
      ASSERT_TRUE(quote.has_value());
      // The quote shows the spoofed probe: telescope address -> victim.
      EXPECT_TRUE(config.telescope.contains(quote->original_src));
      EXPECT_EQ(quote->original_dst, attack.victim);
      EXPECT_EQ(quote->dst_port, 443);
    }
  }
  EXPECT_GT(echo_replies, 20);
  EXPECT_GT(unreachables, 5);
}

TEST(MisconfigEmitterTest, IetfSessionsAreValidQuic) {
  const auto config = tiny_scenario();
  MisconfigEmitter emitter(config, net::Ipv4Address::from_octets(151, 101, 1, 1),
                           1, config.start, 11, 17);
  std::uint64_t packets = 0;
  std::set<std::uint32_t> targets;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->udp().src_port, 443);
    targets.insert(decoded->dst().value());
    const auto result = quic::dissect_udp_payload(decoded->udp().payload);
    EXPECT_TRUE(result.is_quic) << result.reject_reason;
    ++packets;
  }
  EXPECT_EQ(packets, 11u);
  EXPECT_EQ(targets.size(), 1u);  // one confused peer, one stale address
}

TEST(MisconfigEmitterTest, GquicSessionsDissectAsGquic) {
  const auto config = tiny_scenario();
  MisconfigEmitter emitter(config, net::Ipv4Address::from_octets(151, 101, 1, 2),
                           0x51303530, config.start, 6, 19);
  std::uint64_t gquic = 0;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    const auto result = quic::dissect_udp_payload(decoded->udp().payload);
    ASSERT_TRUE(result.is_quic) << result.reject_reason;
    if (result.packets[0].kind == quic::QuicPacketKind::kGquic) ++gquic;
  }
  EXPECT_EQ(gquic, 6u);
}

TEST(ResearchScanEmitterTest, TemplatePatchingKeepsPacketsValid) {
  auto config = tiny_scenario();
  config.tum.passes_per_day = 1.0;
  const net::Ipv4Prefix source{net::Ipv4Address::from_octets(138, 246, 0, 0),
                               16};
  ResearchScanEmitter emitter(config, config.tum, source, 23);
  std::set<std::uint64_t> dcids;
  std::uint64_t packets = 0;
  while (auto packet = emitter.next()) {
    const auto decoded = net::decode_ipv4(packet->data);
    ASSERT_TRUE(decoded.has_value());
    // IP checksum is patched per packet; UDP checksum 0 means "none".
    EXPECT_TRUE(net::verify_checksums(packet->data));
    const auto result = quic::dissect_udp_payload(decoded->udp().payload);
    ASSERT_TRUE(result.is_quic);
    dcids.insert(result.packets[0].dcid.hash());
    ++packets;
  }
  EXPECT_EQ(packets, config.telescope.size());
  // Every probe carries a fresh DCID.
  EXPECT_EQ(dcids.size(), packets);
}

}  // namespace
}  // namespace quicsand::telescope
