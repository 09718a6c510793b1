#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "capture_writers.hpp"
#include "net/headers.hpp"
#include "obs/metrics.hpp"

namespace quicsand::net {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("quicsand_pcap_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".pcap"))
                .string();
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

RawPacket make_packet(util::Timestamp ts, std::uint16_t sport) {
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(192, 0, 2, 1);
  ip.dst = Ipv4Address::from_octets(44, 1, 2, 3);
  return {ts, build_udp(ip, sport, 443, std::vector<std::uint8_t>{1, 2, 3})};
}

TEST_F(PcapTest, WriteThenReadRoundTrip) {
  {
    PcapWriter writer(path_);
    writer.write(make_packet(util::kApril2021Start, 1000));
    writer.write(make_packet(util::kApril2021Start + util::Duration{123456}, 1001));
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  PcapReader reader(path_);
  EXPECT_EQ(reader.linktype(), kLinktypeRaw);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->timestamp, util::kApril2021Start);
  auto decoded = decode_ipv4(p1->data);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->udp().src_port, 1000);

  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->timestamp, util::kApril2021Start + util::Duration{123456});
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, MicrosecondPrecisionPreserved) {
  const util::Timestamp ts = util::kApril2021Start + util::Duration{999999};
  {
    PcapWriter writer(path_);
    writer.write(make_packet(ts, 1));
  }
  PcapReader reader(path_);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->timestamp, ts);
}

TEST_F(PcapTest, ForEachCountsAllPackets) {
  {
    PcapWriter writer(path_);
    for (int i = 0; i < 10; ++i) {
      writer.write(make_packet(util::Timestamp{} + i * util::kSecond, static_cast<std::uint16_t>(i)));
    }
  }
  PcapReader reader(path_);
  std::uint64_t seen = 0;
  const auto n = reader.for_each([&](PacketView) { ++seen; });
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(seen, 10u);
}

TEST_F(PcapTest, EmptyFileHasNoPackets) {
  { PcapWriter writer(path_); }
  PcapReader reader(path_);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    const char junk[24] = {0};
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(PcapReader reader(path_), std::runtime_error);
}

TEST_F(PcapTest, RejectsMissingFile) {
  EXPECT_THROW(PcapReader reader("/nonexistent/path.pcap"),
               std::runtime_error);
}

TEST_F(PcapTest, ThrowsOnTruncatedRecord) {
  {
    PcapWriter writer(path_);
    writer.write(make_packet(util::Timestamp{}, 1));
  }
  // Chop the last 2 bytes off the record body.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 2);
  PcapReader reader(path_);
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST_F(PcapTest, StripsEthernetHeader) {
  // Hand-craft an Ethernet-linktype capture containing one frame.
  const auto ip_packet = make_packet(util::Timestamp{}, 7).data;
  {
    std::ofstream out(path_, std::ios::binary);
    auto w32 = [&](std::uint32_t v) {
      char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                   static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
      out.write(b, 4);
    };
    auto w16 = [&](std::uint16_t v) {
      char b[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
      out.write(b, 2);
    };
    w32(kPcapMagicMicros);
    w16(2);
    w16(4);
    w32(0);
    w32(0);
    w32(65535);
    w32(kLinktypeEthernet);
    const std::uint32_t framelen =
        static_cast<std::uint32_t>(ip_packet.size()) + 14;
    w32(42);  // ts sec
    w32(0);   // ts usec
    w32(framelen);
    w32(framelen);
    const char eth[14] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                          0x08, 0x00};
    out.write(eth, sizeof(eth));
    out.write(reinterpret_cast<const char*>(ip_packet.data()),
              static_cast<std::streamsize>(ip_packet.size()));
  }
  PcapReader reader(path_);
  EXPECT_EQ(reader.linktype(), kLinktypeEthernet);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(RawPacket(*p).data, ip_packet);
  EXPECT_EQ(p->timestamp, util::Timestamp{} + 42 * util::kSecond);
}

// 802.1Q and 802.1ad tags are stripped up to the inner EtherType, so a
// tagged IPv4 frame decodes; a frame too short for its tags is an error.
TEST_F(PcapTest, StripsVlanTags) {
  const auto ip_packet = make_packet(util::Timestamp{}, 9).data;
  const std::uint16_t dot1q[] = {0x8100};
  const std::uint16_t qinq[] = {0x88a8, 0x8100};
  auto short_frame = ethernet_frame({}, dot1q);
  short_frame.resize(16);  // the tag, but no EtherType after it
  {
    PcapWriter writer(path_, kLinktypeEthernet);
    writer.write({util::Timestamp{}, ethernet_frame(ip_packet, dot1q)});
    writer.write({util::Timestamp{}, ethernet_frame(ip_packet, qinq)});
    writer.write({util::Timestamp{}, ethernet_frame(ip_packet, {}, 0x86dd)});
    writer.write({util::Timestamp{}, short_frame});
  }
  PcapReader reader(path_);
  for (int i = 0; i < 2; ++i) {
    auto packet = reader.next();
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(RawPacket(*packet).data, ip_packet);
    EXPECT_TRUE(decode_ipv4(packet->data).has_value());
  }
  // Any other EtherType goes on to the classifier, header stripped.
  auto other = reader.next();
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(RawPacket(*other).data, ip_packet);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

// Every pcap.* counter, exactly, over an Ethernet capture with a
// truncated tail.
TEST_F(PcapTest, CountsEveryPcapCounter) {
  const auto ip_packet = make_packet(util::Timestamp{}, 8).data;
  {
    PcapWriter writer(path_, kLinktypeEthernet);
    for (int i = 0; i < 3; ++i) {
      writer.write({util::Timestamp{} + i * util::kSecond,
                    ethernet_frame(ip_packet)});
    }
  }
  // Cut the last record short.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 5);

  obs::MetricsRegistry metrics;
  PcapReader reader(path_);
  reader.set_metrics(&metrics);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"pcap.blocks_skipped", 0},
      {"pcap.bytes_read", 2 * ip_packet.size()},
      {"pcap.ethernet_stripped", 2},
      {"pcap.linktype_drops", 0},
      {"pcap.packets_read", 2},
      {"pcap.truncated", 1},
  };
  EXPECT_EQ(metrics.counter_snapshot(), expected);
}

}  // namespace
}  // namespace quicsand::net
