// Error paths of the live capture subsystem: sockets that cannot bind,
// ports the OS picks, and the hostile datagrams a public UDP port
// attracts. The sensor's contract is "count, never crash".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/live/frame.hpp"
#include "net/live/receiver.hpp"
#include "net/live/sender.hpp"
#include "net/live/socket.hpp"
#include "net/packet.hpp"

namespace quicsand::net::live {
namespace {

using namespace std::chrono_literals;

/// Spin until `predicate` holds or ~2 s elapse (socket delivery is
/// asynchronous; loopback latency is microseconds, CI headroom is not).
template <typename Predicate>
bool eventually(Predicate predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return predicate();
}

TEST(NetLiveError, BindFailureReportsError) {
  LiveReceiverConfig config;
  // TEST-NET-3 (RFC 5737): never assigned to a local interface, so the
  // bind must fail with EADDRNOTAVAIL rather than hang or abort.
  config.host = "203.0.113.7";
  config.port = 0;
  LiveReceiver receiver(config);
  EXPECT_FALSE(receiver.start([](std::size_t, const net::RawPacket&,
                                  const DatagramTiming&) {}));
  EXPECT_FALSE(receiver.last_error().empty());
  EXPECT_FALSE(receiver.running());
  receiver.stop();  // must be a safe no-op after a failed start
}

TEST(NetLiveError, PortCollisionFailsSecondBind) {
  LiveReceiverConfig config;
  config.port = 0;
  LiveReceiver first(config);
  if (!first.start([](std::size_t, const net::RawPacket&,
                                  const DatagramTiming&) {})) {
    GTEST_SKIP() << "loopback sockets unavailable: " << first.last_error();
  }
  config.port = first.port();
  LiveReceiver second(config);
  EXPECT_FALSE(second.start([](std::size_t, const net::RawPacket&,
                                  const DatagramTiming&) {}));
  EXPECT_FALSE(second.last_error().empty());
  first.stop();
}

TEST(NetLiveError, PortZeroReportsChosenPortAndReceives) {
  LiveReceiverConfig config;
  config.port = 0;
  LiveReceiver receiver(config);
  std::atomic<std::uint64_t> sunk{0};
  if (!receiver.start(
          [&](std::size_t, const net::RawPacket&, const DatagramTiming&) {
            ++sunk;
          })) {
    GTEST_SKIP() << "loopback sockets unavailable: "
                 << receiver.last_error();
  }
  ASSERT_NE(receiver.port(), 0) << "port 0 must resolve to a real port";

  UdpSocket sender;
  ASSERT_TRUE(sender.connect("127.0.0.1", receiver.port()))
      << sender.last_error();
  const std::vector<std::vector<std::uint8_t>> payloads = {
      encode_live_frame(util::Timestamp{1000}, std::vector<std::uint8_t>(
                                                   40, 0x45))};
  ASSERT_EQ(sender.send_batch(payloads), 1u);
  EXPECT_TRUE(eventually([&] { return sunk.load() == 1; }))
      << "datagram sent to the reported port never arrived";
  receiver.stop();
  EXPECT_EQ(receiver.received(), 1u);
  EXPECT_EQ(receiver.delivered(), 1u);
}

TEST(NetLiveError, GarbageDatagramsAreCountedNotFatal) {
  LiveReceiverConfig config;
  config.port = 0;
  LiveReceiver receiver(config);
  std::atomic<std::uint64_t> sunk{0};
  if (!receiver.start(
          [&](std::size_t, const net::RawPacket&, const DatagramTiming&) {
            ++sunk;
          })) {
    GTEST_SKIP() << "loopback sockets unavailable: "
                 << receiver.last_error();
  }
  UdpSocket sender;
  ASSERT_TRUE(sender.connect("127.0.0.1", receiver.port()));

  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back({});                          // zero-length datagram
  payloads.push_back({0xde, 0xad});                // far too short
  payloads.push_back(std::vector<std::uint8_t>(19, 0x45));  // 1 byte shy
  payloads.push_back(std::vector<std::uint8_t>(64, 0x60));  // IPv6 nibble
  payloads.push_back({'Q', 'S', 'L', '1', 0xaa});  // truncated QSL1 frame
  const auto sent = sender.send_batch(payloads);
  ASSERT_EQ(sent, payloads.size()) << sender.last_error();

  // A zero-length UDP datagram is legal and must still be delivered.
  EXPECT_TRUE(eventually([&] { return sunk.load() == payloads.size(); }))
      << "received " << receiver.received() << ", undecodable "
      << receiver.undecodable();
  receiver.stop();
  EXPECT_EQ(receiver.received(), payloads.size());
  EXPECT_EQ(receiver.delivered(), payloads.size());
  EXPECT_EQ(receiver.undecodable(), payloads.size());
  EXPECT_EQ(receiver.dropped_ring(), 0u);
}

TEST(NetLiveError, SenderConnectFailureReportsError) {
  LiveSenderConfig config;
  config.host = "name-that-does-not-resolve.invalid";
  config.port = 4433;
  LiveSender sender(config);
  const auto stats =
      sender.send_batches([](net::RecordBatch&) { return false; });
  EXPECT_EQ(stats.sent, 0u);
  EXPECT_FALSE(sender.last_error().empty());
}

TEST(NetLiveError, ParseRateModeRejectsUnknownNames) {
  EXPECT_TRUE(parse_rate_mode("constant").has_value());
  EXPECT_TRUE(parse_rate_mode("burst").has_value());
  EXPECT_TRUE(parse_rate_mode("ramp").has_value());
  EXPECT_TRUE(parse_rate_mode("chaos").has_value());
  EXPECT_FALSE(parse_rate_mode("").has_value());
  EXPECT_FALSE(parse_rate_mode("Constant").has_value());
  EXPECT_FALSE(parse_rate_mode("bursty").has_value());
}

TEST(NetLiveFrame, EdgeCases) {
  // Empty payload: bare, empty datagram.
  {
    const auto frame = parse_live_frame({});
    EXPECT_FALSE(frame.encapsulated);
    EXPECT_TRUE(frame.datagram.empty());
  }
  // Magic alone (4 bytes): too short for the header, treated as bare so
  // the bytes are not silently eaten.
  {
    const std::vector<std::uint8_t> payload = {'Q', 'S', 'L', '1'};
    const auto frame = parse_live_frame(payload);
    EXPECT_FALSE(frame.encapsulated);
    EXPECT_EQ(frame.datagram.size(), payload.size());
  }
  // Magic + 7 bytes: one byte short of a full header, still bare.
  {
    std::vector<std::uint8_t> payload = {'Q', 'S', 'L', '1'};
    payload.resize(kFrameHeaderSize - 1, 0x00);
    const auto frame = parse_live_frame(payload);
    EXPECT_FALSE(frame.encapsulated);
    EXPECT_EQ(frame.datagram.size(), payload.size());
  }
  // Exactly the header: encapsulated, empty datagram.
  {
    const auto encoded = encode_live_frame(util::Timestamp{42}, {});
    ASSERT_EQ(encoded.size(), kFrameHeaderSize);
    const auto frame = parse_live_frame(encoded);
    EXPECT_TRUE(frame.encapsulated);
    EXPECT_EQ(frame.timestamp, util::Timestamp{42});
    EXPECT_TRUE(frame.datagram.empty());
  }
  // Round-trip with a payload and a negative-epoch timestamp.
  {
    const std::vector<std::uint8_t> datagram = {1, 2, 3, 4, 5};
    const auto encoded =
        encode_live_frame(util::Timestamp{-7}, datagram);
    const auto frame = parse_live_frame(encoded);
    EXPECT_TRUE(frame.encapsulated);
    EXPECT_EQ(frame.timestamp, util::Timestamp{-7});
    ASSERT_EQ(frame.datagram.size(), datagram.size());
    EXPECT_TRUE(std::equal(frame.datagram.begin(), frame.datagram.end(),
                           datagram.begin()));
  }
}

TEST(NetLiveFrame, QuickSourceMirrorsDecoderPreconditions) {
  EXPECT_EQ(quick_ipv4_source({}), std::nullopt);
  std::vector<std::uint8_t> datagram(20, 0);
  datagram[0] = 0x45;
  datagram[12] = 10;
  datagram[13] = 20;
  datagram[14] = 30;
  datagram[15] = 40;
  const auto source = quick_ipv4_source(datagram);
  ASSERT_TRUE(source.has_value());
  EXPECT_EQ(*source, (10u << 24) | (20u << 16) | (30u << 8) | 40u);
  datagram[0] = 0x65;  // version 6 nibble
  EXPECT_EQ(quick_ipv4_source(datagram), std::nullopt);
  datagram.resize(19);
  datagram[0] = 0x45;
  EXPECT_EQ(quick_ipv4_source(datagram), std::nullopt);
}

}  // namespace
}  // namespace quicsand::net::live
