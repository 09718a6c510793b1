#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "capture_writers.hpp"
#include "net/headers.hpp"
#include "obs/metrics.hpp"

namespace quicsand::net {
namespace {

std::vector<std::uint8_t> sample_ip_packet(std::uint16_t sport) {
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(192, 0, 2, 1);
  ip.dst = Ipv4Address::from_octets(44, 0, 0, 9);
  return build_udp(ip, sport, 443, std::vector<std::uint8_t>{1, 2, 3});
}

class PcapngTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("quicsand_pcapng_") +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name() +
              ".pcapng"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(PcapngTest, ReadsRawPackets) {
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeRaw);
  const auto packet = sample_ip_packet(1000);
  writer.enhanced_packet(0, 1617235200000000ULL, packet);  // µs default
  writer.enhanced_packet(0, 1617235200123456ULL, packet);
  writer.save(path_);

  PcapReader reader(path_);
  auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->timestamp, util::Timestamp{1617235200000000LL});
  EXPECT_EQ(RawPacket(*first).data, packet);
  auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->timestamp, util::Timestamp{1617235200123456LL});
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.interface_count(), 1u);
}

TEST_F(PcapngTest, StripsEthernetAndSkipsUnknownBlocks) {
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeEthernet);
  writer.unknown_block();
  const auto ip_packet = sample_ip_packet(2000);
  std::vector<std::uint8_t> frame(14 + ip_packet.size(), 0xee);
  frame[12] = 0x08;
  frame[13] = 0x00;
  std::copy(ip_packet.begin(), ip_packet.end(), frame.begin() + 14);
  writer.enhanced_packet(0, 42, frame);
  writer.save(path_);

  PcapReader reader(path_);
  auto packet = reader.next();
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(RawPacket(*packet).data, ip_packet);
}

TEST_F(PcapngTest, HonoursNanosecondTsresol) {
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeRaw, std::uint8_t{9});  // 10^-9
  const auto packet = sample_ip_packet(3000);
  writer.enhanced_packet(0, 5000000000ULL, packet);  // 5 s in ns
  writer.save(path_);

  PcapReader reader(path_);
  auto read = reader.next();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->timestamp, util::Timestamp{5000000LL});  // 5 s in µs
}

TEST_F(PcapngTest, BigEndianSections) {
  TestPcapngWriter writer(/*big_endian=*/true);
  writer.section_header();
  writer.interface_description(kLinktypeRaw);
  const auto packet = sample_ip_packet(4000);
  writer.enhanced_packet(0, 77, packet);
  writer.save(path_);

  PcapReader reader(path_);
  auto read = reader.next();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(RawPacket(*read).data, packet);
  EXPECT_EQ(read->timestamp, util::Timestamp{77});
}

TEST_F(PcapngTest, ForEachCounts) {
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeRaw);
  for (int i = 0; i < 7; ++i) {
    writer.enhanced_packet(0, static_cast<std::uint64_t>(i),
                           sample_ip_packet(static_cast<std::uint16_t>(i)));
  }
  writer.save(path_);
  PcapReader reader(path_);
  std::uint64_t seen = 0;
  EXPECT_EQ(reader.for_each([&](PacketView) { ++seen; }), 7u);
  EXPECT_EQ(seen, 7u);
}

TEST_F(PcapngTest, RejectsGarbage) {
  {
    std::ofstream out(path_, std::ios::binary);
    const char junk[32] = {0x42};
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(PcapReader reader(path_), std::runtime_error);
  EXPECT_THROW(PcapReader reader("/nonexistent.pcapng"),
               std::runtime_error);
}

TEST_F(PcapngTest, RejectsPacketForUnknownInterface) {
  TestPcapngWriter writer;
  writer.section_header();
  // No interface description at all.
  writer.enhanced_packet(3, 0, sample_ip_packet(1));
  writer.save(path_);
  PcapReader reader(path_);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

TEST_F(PcapngTest, ReadsFromCallerOwnedStream) {
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeRaw);
  const auto packet = sample_ip_packet(1234);
  writer.enhanced_packet(0, 42, packet);
  writer.save(path_);
  std::ifstream file(path_, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::istringstream in(buffer.str());
  PcapReader reader(in);
  auto read = reader.next();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(RawPacket(*read).data, packet);
}

// The next three are fuzzer-found regressions (see tests/corpus/pcapng).

TEST_F(PcapngTest, RejectsCaplenOverflowingBoundsCheck) {
  // An EPB claiming caplen 0xffffffff used to wrap the 32-bit
  // `20 + caplen` bounds check and read out of bounds.
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeRaw);
  writer.enhanced_packet(0, 0, sample_ip_packet(1));
  writer.save(path_);
  std::ifstream file(path_, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  std::string bytes = buffer.str();
  // Locate the last block (the EPB) via its trailing total-length copy,
  // then patch its caplen field: block header (8) + id (4) + ts (8).
  std::uint32_t total = 0;
  // lint:allow(raw-memcpy): fixed 4-byte read of the trailing length copy
  std::memcpy(&total, bytes.data() + bytes.size() - 4, 4);
  ASSERT_LT(total, bytes.size());
  const std::size_t caplen_offset = bytes.size() - total + 8 + 4 + 8;
  for (int i = 0; i < 4; ++i) bytes[caplen_offset + i] = '\xff';
  std::istringstream in(bytes);
  PcapReader reader(in);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

TEST_F(PcapngTest, RejectsOverflowingTimestampResolution) {
  for (const std::uint8_t tsresol : {std::uint8_t{20},    // 10^20
                                     std::uint8_t{0xc0},  // 2^64
                                     std::uint8_t{0xff}}) {
    TestPcapngWriter writer;
    writer.section_header();
    writer.interface_description(kLinktypeRaw, tsresol);
    writer.enhanced_packet(0, 1, sample_ip_packet(1));
    writer.save(path_);
    PcapReader reader(path_);
    EXPECT_THROW((void)reader.next(), std::runtime_error)
        << "tsresol " << int(tsresol);
  }
}

TEST_F(PcapngTest, RejectsTimestampBeyondMicrosecondRange) {
  TestPcapngWriter writer;
  writer.section_header();
  // 1 tick per second: ~2^64 ticks exceeds int64 microseconds.
  writer.interface_description(kLinktypeRaw, std::uint8_t{0x80});
  writer.enhanced_packet(0, 0xffffffffffffffffULL, sample_ip_packet(1));
  writer.save(path_);
  PcapReader reader(path_);
  EXPECT_THROW((void)reader.next(), std::runtime_error);
}

// 802.1Q and 802.1ad tags are stripped up to the inner EtherType, so a
// tagged IPv4 frame decodes; a frame too short for its tags is an error.
TEST_F(PcapngTest, StripsVlanTags) {
  const auto ip_packet = sample_ip_packet(5000);
  const std::uint16_t dot1q[] = {0x8100};
  const std::uint16_t qinq[] = {0x88a8, 0x8100};
  auto short_frame = ethernet_frame({}, dot1q);
  short_frame.resize(16);  // the tag, but no EtherType after it
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeEthernet);
  writer.enhanced_packet(0, 1, ethernet_frame(ip_packet, dot1q));
  writer.enhanced_packet(0, 2, ethernet_frame(ip_packet, qinq));
  writer.enhanced_packet(0, 3, ethernet_frame(ip_packet, {}, 0x86dd));
  writer.enhanced_packet(0, 4, short_frame);
  writer.save(path_);

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

// Every pcap.* counter, exactly, over one capture with an Ethernet
// interface, an interface of an unsupported link type, a Simple Packet
// Block, an unknown block and a truncated tail.
TEST_F(PcapngTest, CountsEveryPcapCounter) {
  const auto ip_packet = sample_ip_packet(6000);
  TestPcapngWriter writer;
  writer.section_header();
  writer.interface_description(kLinktypeEthernet);
  writer.interface_description(147);  // LINKTYPE_USER0
  writer.enhanced_packet(0, 1, ethernet_frame(ip_packet));
  writer.simple_packet(ip_packet);
  writer.unknown_block();
  writer.enhanced_packet(1, 2, ip_packet);
  writer.enhanced_packet(0, 3, ethernet_frame(ip_packet));
  writer.enhanced_packet(0, 4, ethernet_frame(ip_packet));
  auto bytes = writer.bytes();
  bytes.resize(bytes.size() - 6);  // cut the last block short
  std::istringstream in(std::string(bytes.begin(), bytes.end()));

  obs::MetricsRegistry metrics;
  PcapReader reader(in);
  reader.set_metrics(&metrics);
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_THROW((void)reader.next(), std::runtime_error);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"pcap.blocks_skipped", 2},
      {"pcap.bytes_read", 2 * ip_packet.size()},
      {"pcap.ethernet_stripped", 2},
      {"pcap.linktype_drops", 1},
      {"pcap.packets_read", 2},
      {"pcap.truncated", 1},
  };
  EXPECT_EQ(metrics.counter_snapshot(), expected);
}

}  // namespace
}  // namespace quicsand::net
