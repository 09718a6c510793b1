#include "net/headers.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "reference_builders.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand::net {
namespace {

const Ipv4Address kSrc = Ipv4Address::from_octets(192, 0, 2, 1);
const Ipv4Address kDst = Ipv4Address::from_octets(198, 51, 100, 2);

Ipv4Header header() {
  Ipv4Header ip;
  ip.src = kSrc;
  ip.dst = kDst;
  ip.ttl = 57;
  ip.identification = 0x1234;
  return ip;
}

TEST(InternetChecksum, KnownVector) {
  // Classic example from RFC 1071 materials.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, OddLength) {
  const std::vector<std::uint8_t> data = {0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xfbfd
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(BuildUdp, RoundTripsThroughDecode) {
  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe, 0xef};
  const auto pkt = build_udp(header(), 50000, 443, payload);
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_udp());
  EXPECT_EQ(decoded->src(), kSrc);
  EXPECT_EQ(decoded->dst(), kDst);
  EXPECT_EQ(decoded->ttl(), 57);
  EXPECT_EQ(decoded->udp().src_port, 50000);
  EXPECT_EQ(decoded->udp().dst_port, 443);
  ASSERT_EQ(decoded->udp().payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                         decoded->udp().payload.begin()));
}

TEST(BuildUdp, OtherProtocolAccessorsThrow) {
  const auto pkt =
      build_udp(header(), 50000, 443, std::vector<std::uint8_t>(8));
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_THROW((void)decoded->tcp(), std::logic_error);
  EXPECT_THROW((void)decoded->icmp(), std::logic_error);
  EXPECT_NO_THROW((void)decoded->udp());
}

TEST(BuildUdp, ChecksumsAreValid) {
  const auto pkt = build_udp(header(), 1234, 443, std::vector<std::uint8_t>(100, 0xab));
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(BuildUdp, EmptyPayload) {
  const auto pkt = build_udp(header(), 1, 2, {});
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->udp().payload.size(), 0u);
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(BuildTcp, RoundTripsThroughDecode) {
  TcpInfo tcp;
  tcp.src_port = 443;
  tcp.dst_port = 33333;
  tcp.seq = 0x01020304;
  tcp.ack = 0x0a0b0c0d;
  tcp.flags = TcpFlags::kSyn | TcpFlags::kAck;
  const auto pkt = build_tcp(header(), tcp);
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->is_tcp());
  EXPECT_EQ(decoded->tcp().src_port, 443);
  EXPECT_EQ(decoded->tcp().dst_port, 33333);
  EXPECT_EQ(decoded->tcp().seq, 0x01020304u);
  EXPECT_EQ(decoded->tcp().ack, 0x0a0b0c0du);
  EXPECT_EQ(decoded->tcp().flags, TcpFlags::kSyn | TcpFlags::kAck);
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(BuildTcp, RstHasValidChecksum) {
  TcpInfo tcp;
  tcp.src_port = 443;
  tcp.dst_port = 50123;
  tcp.flags = TcpFlags::kRst;
  EXPECT_TRUE(verify_checksums(build_tcp(header(), tcp)));
}

TEST(BuildIcmp, RoundTripsThroughDecode) {
  IcmpInfo icmp;
  icmp.type = 3;  // destination unreachable
  icmp.code = 1;
  const std::vector<std::uint8_t> payload(8, 0x11);
  icmp.payload = payload;
  const auto pkt = build_icmp(header(), icmp);
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->is_icmp());
  EXPECT_EQ(decoded->icmp().type, 3);
  EXPECT_EQ(decoded->icmp().code, 1);
  EXPECT_EQ(decoded->icmp().payload.size(), 8u);
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(DecodeIpv4, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> data(10, 0x45);
  EXPECT_FALSE(decode_ipv4(data).has_value());
}

TEST(DecodeIpv4, RejectsNonIpv4Version) {
  auto pkt = build_udp(header(), 1, 2, {});
  pkt[0] = 0x65;  // version 6
  EXPECT_FALSE(decode_ipv4(pkt).has_value());
}

TEST(DecodeIpv4, RejectsTotalLengthBeyondBuffer) {
  auto pkt = build_udp(header(), 1, 2, {});
  pkt[2] = 0xff;  // total length 0xff..
  pkt[3] = 0xff;
  EXPECT_FALSE(decode_ipv4(pkt).has_value());
}

TEST(DecodeIpv4, RejectsUnsupportedProtocol) {
  auto pkt = build_udp(header(), 1, 2, {});
  pkt[9] = 47;  // GRE
  EXPECT_FALSE(decode_ipv4(pkt).has_value());
}

TEST(DecodeIpv4, RejectsTruncatedUdpHeader) {
  auto pkt = build_udp(header(), 1, 2, {});
  pkt.resize(24);  // 20 IP + 4 bytes of UDP
  pkt[2] = 0;
  pkt[3] = 24;
  EXPECT_FALSE(decode_ipv4(pkt).has_value());
}

TEST(DecodeIpv4, RejectsBadUdpLength) {
  auto pkt = build_udp(header(), 1, 2, {});
  pkt[24] = 0xff;  // UDP length field absurdly large
  pkt[25] = 0xff;
  EXPECT_FALSE(decode_ipv4(pkt).has_value());
}

TEST(DecodeIpv4, TrailingBytesAfterTotalLengthIgnored) {
  auto pkt = build_udp(header(), 9, 443, std::vector<std::uint8_t>{1, 2, 3});
  pkt.push_back(0xff);  // capture slack
  pkt.push_back(0xff);
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->udp().payload.size(), 3u);
}

TEST(VerifyChecksums, DetectsCorruptedIpHeader) {
  auto pkt = build_udp(header(), 1, 2, {});
  pkt[8] ^= 0xff;  // ttl flip invalidates IP checksum
  EXPECT_FALSE(verify_checksums(pkt));
}

TEST(VerifyChecksums, DetectsCorruptedUdpPayload) {
  auto pkt = build_udp(header(), 1, 2, std::vector<std::uint8_t>(10, 0x42));
  pkt.back() ^= 0x01;
  EXPECT_FALSE(verify_checksums(pkt));
}

// --- Oversize datagrams ------------------------------------------------

TEST(BuildUdp, LargestDatagramBuildsAndVerifies) {
  const std::vector<std::uint8_t> payload(65507, 0x5a);
  const auto pkt = build_udp(header(), 1, 2, payload);
  ASSERT_EQ(pkt.size(), 65535u);
  const auto decoded = decode_ipv4(pkt);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->total_length(), 65535);
  EXPECT_EQ(decoded->udp().payload.size(), payload.size());
  EXPECT_TRUE(verify_checksums(pkt));
}

TEST(BuildUdp, OversizeDatagramThrowsInsteadOfWrappingLengths) {
  // 65,508 bytes used to wrap the IPv4 total length to 0, and 65,528
  // bytes made it 20 with a UDP length of 0: neither decoded.
  for (const std::size_t size : {65508u, 65528u, 70000u}) {
    const std::vector<std::uint8_t> payload(size);
    EXPECT_THROW((void)build_udp(header(), 1, 2, payload), std::length_error)
        << size;
    EXPECT_THROW((void)udp_size(size), std::length_error) << size;
  }
  const std::vector<std::uint8_t> payload(65512);
  TcpInfo tcp;
  tcp.payload = std::span(payload).first(65496);
  EXPECT_THROW((void)build_tcp(header(), tcp), std::length_error);
  tcp.payload = std::span(payload).first(65495);
  EXPECT_TRUE(verify_checksums(build_tcp(header(), tcp)));
  IcmpInfo icmp;
  icmp.payload = std::span(payload).first(65512);
  EXPECT_THROW((void)build_icmp(header(), icmp), std::length_error);
  std::vector<std::uint8_t> out(64);
  EXPECT_THROW((void)write_ipv4_header(out, header(), 65516),
               std::length_error);
}

TEST(WriteUdp, ShortBufferThrowsAndLongBufferKeepsItsTail) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  std::vector<std::uint8_t> out(udp_size(payload.size()) - 1);
  EXPECT_THROW((void)write_udp(out, header(), 1, 2, payload),
               std::out_of_range);
  out.assign(40, 0xee);
  EXPECT_EQ(write_udp(out, header(), 1, 2, payload), 31u);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + 31),
            build_udp(header(), 1, 2, payload));
  EXPECT_EQ(out[31], 0xee);
}

// --- Writers vs the ByteWriter reference builders ---------------------

Ipv4Header random_header(util::Rng& rng) {
  Ipv4Header ip;
  ip.src = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  ip.dst = Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  ip.ttl = static_cast<std::uint8_t>(rng.next());
  ip.identification = static_cast<std::uint16_t>(rng.next());
  // The writers set the protocol themselves; a wrong one must not leak.
  ip.protocol = static_cast<IpProtocol>(rng.next());
  return ip;
}

TEST(WriterOracle, MatchesReferenceBuildersOnRandomInputs) {
  util::Rng rng(0x5e71a1);
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 120000; ++i) {
    const auto ip = random_header(rng);
    // Mostly short payloads, like the generator's, with every length up
    // to a 1,500-byte MTU (odd ones included) drawn too.
    payload.resize(rng.bernoulli(0.5) ? rng.uniform(64) : rng.uniform(1501));
    rng.fill(payload);
    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> want;
    switch (rng.uniform(4)) {
      case 0: {
        const auto sport = static_cast<std::uint16_t>(rng.next());
        const auto dport = static_cast<std::uint16_t>(rng.next());
        got = build_udp(ip, sport, dport, payload);
        want = reference::build_udp(ip, sport, dport, payload);
        break;
      }
      case 1: {
        TcpInfo tcp;
        tcp.src_port = static_cast<std::uint16_t>(rng.next());
        tcp.dst_port = static_cast<std::uint16_t>(rng.next());
        tcp.seq = static_cast<std::uint32_t>(rng.next());
        tcp.ack = static_cast<std::uint32_t>(rng.next());
        tcp.flags = static_cast<std::uint8_t>(rng.next());
        tcp.payload = payload;
        got = build_tcp(ip, tcp);
        want = reference::build_tcp(ip, tcp);
        break;
      }
      case 2: {
        IcmpInfo icmp;
        icmp.type = static_cast<std::uint8_t>(rng.next());
        icmp.code = static_cast<std::uint8_t>(rng.next());
        icmp.payload = payload;
        got = build_icmp(ip, icmp);
        want = reference::build_icmp(ip, icmp);
        break;
      }
      default: {
        const auto type = static_cast<std::uint8_t>(rng.next());
        const auto code = static_cast<std::uint8_t>(rng.next());
        got = build_icmp_error(ip, type, code, payload);
        want = reference::build_icmp_error(ip, type, code, payload);
        break;
      }
    }
    ASSERT_EQ(got, want) << "input " << i << ", payload " << payload.size();
    ASSERT_TRUE(verify_checksums(got)) << "input " << i;
  }
}

TEST(WriterOracle, UdpChecksumFoldingToZeroIsSentAsAllOnes) {
  // Choose the last payload word so the one's-complement sum is 0xffff:
  // the computed checksum is then 0, which UDP must send as 0xffff
  // (RFC 768). Payload lengths stay even so that word is aligned.
  util::Rng rng(0xfff);
  int all_ones = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto ip = random_header(rng);
    std::vector<std::uint8_t> payload(2 + 2 * rng.uniform(700));
    rng.fill(payload);
    payload[payload.size() - 2] = 0;
    payload[payload.size() - 1] = 0;
    const auto probe = reference::build_udp(ip, 443, 40000, payload);
    const std::uint16_t csum = util::load_be16(probe, 26);
    if (csum == 0xffff) continue;  // already the substituted value
    payload[payload.size() - 2] = static_cast<std::uint8_t>(csum >> 8);
    payload[payload.size() - 1] = static_cast<std::uint8_t>(csum);
    const auto got = build_udp(ip, 443, 40000, payload);
    ASSERT_EQ(got, reference::build_udp(ip, 443, 40000, payload))
        << "input " << i;
    ASSERT_EQ(util::load_be16(got, 26), 0xffff) << "input " << i;
    ASSERT_TRUE(verify_checksums(got)) << "input " << i;
    ++all_ones;
  }
  EXPECT_GT(all_ones, 19000);
}

TEST(WriterOracle, InternetChecksumMatchesAtEveryLengthAndAlignment) {
  util::Rng rng(0xc5);
  std::vector<std::uint8_t> buffer(2048 + 8);
  for (int round = 0; round < 2; ++round) {
    rng.fill(buffer);
    if (round == 1) {
      // All-ones bytes drive the sum to its carry-heaviest values.
      std::fill(buffer.begin(), buffer.end(), 0xff);
    }
    for (std::size_t start = 0; start < 8; ++start) {
      for (std::size_t length = 0; length <= 2048; ++length) {
        const auto data = std::span(buffer).subspan(start, length);
        ASSERT_EQ(internet_checksum(data), reference::internet_checksum(data))
            << "round " << round << " start " << start << " length "
            << length;
      }
    }
  }
}

}  // namespace
}  // namespace quicsand::net
