// Property tests for the packet codecs, the prefix trie (against a
// linear-scan reference) and the scan-pass permutation.
#include <gtest/gtest.h>

#include <map>

#include "asdb/prefix_trie.hpp"
#include "net/headers.hpp"
#include "scanner/zmap.hpp"
#include "util/rng.hpp"

namespace quicsand {
namespace {

TEST(NetProperty, UdpBuildDecodeVerifySweep) {
  util::Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    net::Ipv4Header ip;
    ip.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    ip.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    ip.ttl = static_cast<std::uint8_t>(1 + rng.uniform(255));
    ip.identification = static_cast<std::uint16_t>(rng.next());
    const auto sport = static_cast<std::uint16_t>(rng.uniform(65536));
    const auto dport = static_cast<std::uint16_t>(rng.uniform(65536));
    const auto payload = rng.bytes(rng.uniform(1400));
    const auto packet = net::build_udp(ip, sport, dport, payload);
    ASSERT_TRUE(net::verify_checksums(packet));
    const auto decoded = net::decode_ipv4(packet);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->src(), ip.src);
    EXPECT_EQ(decoded->dst(), ip.dst);
    EXPECT_EQ(decoded->udp().src_port, sport);
    EXPECT_EQ(decoded->udp().dst_port, dport);
    EXPECT_EQ(decoded->udp().payload.size(), payload.size());
  }
}

TEST(NetProperty, TcpBuildDecodeVerifySweep) {
  util::Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    net::Ipv4Header ip;
    ip.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    ip.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
    net::TcpInfo tcp;
    tcp.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
    tcp.dst_port = static_cast<std::uint16_t>(rng.uniform(65536));
    tcp.seq = static_cast<std::uint32_t>(rng.next());
    tcp.ack = static_cast<std::uint32_t>(rng.next());
    tcp.flags = static_cast<std::uint8_t>(rng.uniform(64));
    const auto body = rng.bytes(rng.uniform(200));
    tcp.payload = body;
    const auto packet = net::build_tcp(ip, tcp);
    ASSERT_TRUE(net::verify_checksums(packet));
    const auto decoded = net::decode_ipv4(packet);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->tcp().seq, tcp.seq);
    EXPECT_EQ(decoded->tcp().flags, tcp.flags);
  }
}

TEST(NetProperty, PayloadBitFlipBreaksChecksum) {
  util::Rng rng(3);
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(1, 2, 3, 4);
  ip.dst = net::Ipv4Address::from_octets(5, 6, 7, 8);
  const auto payload = rng.bytes(300);
  const auto packet = net::build_udp(ip, 1000, 2000, payload);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = packet;
    // Flip a single bit anywhere in the datagram.
    const auto bit = rng.uniform(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(net::verify_checksums(mutated)) << "bit " << bit;
  }
}

TEST(NetProperty, DecodeFuzzNeverThrows) {
  util::Rng rng(4);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto junk = rng.bytes(rng.uniform(120));
    ASSERT_NO_THROW((void)net::decode_ipv4(junk));
    ASSERT_NO_THROW((void)net::verify_checksums(junk));
  }
}

TEST(TrieProperty, MatchesLinearReferenceOnRandomTables) {
  util::Rng rng(5);
  for (int table = 0; table < 10; ++table) {
    asdb::PrefixTrie<int> trie;
    std::vector<std::pair<net::Ipv4Prefix, int>> reference;
    for (int i = 0; i < 120; ++i) {
      const auto base =
          net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
      const int length = static_cast<int>(rng.uniform_range(4, 28));
      const net::Ipv4Prefix prefix(base, length);
      trie.insert(prefix, i);
      // A later announcement of the same prefix overwrites: mimic that
      // in the reference.
      bool replaced = false;
      for (auto& [p, v] : reference) {
        if (p == prefix) {
          v = i;
          replaced = true;
          break;
        }
      }
      if (!replaced) reference.emplace_back(prefix, i);
    }
    for (int probe = 0; probe < 500; ++probe) {
      const auto addr =
          net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
      // Linear longest-prefix match.
      int best_value = -1;
      int best_length = -1;
      for (const auto& [prefix, value] : reference) {
        if (prefix.contains(addr) && prefix.length() > best_length) {
          best_length = prefix.length();
          best_value = value;
        }
      }
      const auto got = trie.lookup(addr);
      if (best_length < 0) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, best_value);
      }
    }
  }
}

class ScanPermutationTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanPermutationTest, BijectiveOverTelescope) {
  scanner::ScanPassConfig config;
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0),
                      GetParam()};
  config.duration = util::kHour;
  config.seed = static_cast<std::uint64_t>(GetParam());
  scanner::ScanPass pass(config);
  std::vector<bool> seen(config.telescope.size(), false);
  std::uint64_t count = 0;
  while (auto probe = pass.next()) {
    const auto index = probe->target.value() -
                       config.telescope.base().value();
    ASSERT_LT(index, seen.size());
    EXPECT_FALSE(seen[index]) << "duplicate probe";
    seen[index] = true;
    ++count;
  }
  EXPECT_EQ(count, config.telescope.size());
}

INSTANTIATE_TEST_SUITE_P(PrefixLengths, ScanPermutationTest,
                         ::testing::Values(32, 30, 27, 24, 21, 18));

}  // namespace
}  // namespace quicsand
