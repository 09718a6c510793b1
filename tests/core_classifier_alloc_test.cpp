// Zero-allocation pins for the path from capture bytes to record: a
// global operator-new hook counts heap allocations.
//
//  * Classifier::classify must make none per datagram once warm. The mix
//    is generated flood and research-scan traffic plus handcrafted
//    datagrams, so every QUIC packet kind (Version Negotiation, gQUIC,
//    Retry and short headers included) and rejected UDP/443 payloads all
//    pass through the measured calls.
//  * PcapReader::next() must make none per record after the first: it
//    returns a view into its buffer. Classic pcap in both byte orders
//    with µs and ns stamps, and pcapng with Ethernet frames and VLAN
//    tags, all read from memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "capture_writers.hpp"
#include "core/classifier.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "net/record_batch.hpp"
#include "obs/metrics.hpp"
#include "quic/gquic.hpp"
#include "quic/packets.hpp"
#include "quic/retry.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/rng.hpp"

// --- Counting allocator hook ------------------------------------------
// Every heap allocation in this binary bumps the counter; the test
// snapshots it around the region under measurement.

namespace {
// Global by necessity: operator new replacements cannot take state.
// lint:allow(unguarded-mutable-static)
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace quicsand::core {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

using Bytes = std::vector<std::uint8_t>;

/// Handcrafted UDP/443 responses for what the generator never emits:
/// Retry, 0-RTT, gQUIC long and public headers, a long Version
/// Negotiation list, a 1-RTT short header and payloads the dissector
/// rejects, truncated gQUIC public headers among them.
std::vector<Bytes> crafted_datagrams() {
  util::Rng rng(77);
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 1, 1);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 9);
  std::vector<Bytes> out;
  auto response = [&](const Bytes& payload) {
    out.push_back(net::build_udp(ip, 443, 40000, payload));
  };
  const quic::ConnectionId dcid(rng.bytes(8));
  const quic::ConnectionId scid(rng.bytes(8));
  for (int i = 0; i < 50; ++i) {
    const auto token = rng.bytes(24);
    const quic::ConnectionId odcid(rng.bytes(8));
    response(quic::build_retry_packet(1, dcid, scid, token, odcid));
    // A Version Negotiation packet with a 64-entry list.
    util::ByteWriter vn;
    vn.write_u8(0xc0);
    vn.write_u32(0);
    vn.write_u8(8);
    vn.write_bytes(dcid.bytes());
    vn.write_u8(8);
    vn.write_bytes(scid.bytes());
    for (std::uint32_t v = 0; v < 64; ++v) vn.write_u32(0xff000000u + v);
    response(vn.take());
    // gQUIC Q046 long header, and a Q043 public header with a version.
    Bytes q046 = rng.bytes(60);
    q046[0] = 0xc3;
    q046[1] = 'Q';
    q046[2] = '0';
    q046[3] = '4';
    q046[4] = '6';
    response(q046);
    const quic::ConnectionId gquic_cid(rng.bytes(8));
    const auto q043 =
        quic::build_gquic_packet(gquic_cid, 0x51303433, 1, rng.bytes(40));
    response(q043);
    // Rejected: that public header with its connection ID, then its
    // version, cut at every length.
    for (std::ptrdiff_t n = 1; n < 1 + 8 + 4; ++n) {
      response(Bytes(q043.begin(), q043.begin() + n));
    }
    // A 0-RTT packet: 8-byte DCID, empty SCID, Length 32.
    util::ByteWriter zero_rtt;
    zero_rtt.write_u8(0xd0);
    zero_rtt.write_u32(1);
    zero_rtt.write_u8(8);
    zero_rtt.write_bytes(dcid.bytes());
    zero_rtt.write_u8(0);
    zero_rtt.write_u8(32);
    zero_rtt.write_bytes(rng.bytes(32));
    response(zero_rtt.take());
    // A 1-RTT short header.
    Bytes short_header = rng.bytes(40);
    short_header[0] = 0x40 | (short_header[0] & 0x3f);
    response(short_header);
    // Rejected: not QUIC at all, too short, unknown version, a
    // malformed coalesced tail and a truncated long header.
    response({0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00});
    response({0x41, 0x02});
    response({0xc0, 0x12, 0x34, 0x56, 0x78, 0x00, 0x00});
    const auto ctx = quic::HandshakeContext::random(1, rng);
    Bytes bad_tail = quic::build_server_initial_handshake(
        ctx, rng, quic::CryptoFidelity::kFast);
    bad_tail.push_back(0x05);
    response(bad_tail);
    response({0xc0, 0x00, 0x00, 0x00, 0x01, 0x08, 0x01});
  }
  return out;
}

/// Classifies every datagram and counts the heap allocations made inside
/// classify() itself, plus what the records say about the mix.
class MeasuredClassifier {
 public:
  void classify(std::span<const std::uint8_t> datagram) {
    const auto before = allocations();
    const auto record = classifier_.classify(util::Timestamp{}, datagram);
    allocated_ += allocations() - before;
    ++datagrams_;
    if (record && record->is_quic()) {
      for (std::size_t k = 0; k < kQuicKindCount; ++k) {
        kinds_[k] += record->kind_counts[k];
      }
    }
  }

  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  [[nodiscard]] std::uint64_t datagrams() const { return datagrams_; }
  [[nodiscard]] std::uint64_t kind(std::size_t k) const { return kinds_[k]; }
  [[nodiscard]] const ClassifierStats& stats() const {
    return classifier_.stats();
  }

 private:
  Classifier classifier_{{}};
  std::uint64_t allocated_ = 0;
  std::uint64_t datagrams_ = 0;
  std::array<std::uint64_t, kQuicKindCount> kinds_{};
};

TEST(ClassifierAllocations, SteadyStateClassifyNeverTouchesTheHeap) {
  // One generated day of QUIC floods and research passes, with the
  // botnet scanners and the misconfigured hosts that answer in gQUIC,
  // streamed through a reused batch; then the crafted datagrams.
  auto config = telescope::ScenarioConfig::april2021(1, 5150);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  config.tum.passes_per_day = 1;
  config.rwth.passes_per_day = 1;
  config.attacks.quic_attacks_per_day = 100;
  config.attacks.common_attacks_per_day = 0;
  config.botnet.sessions_per_day = 100;
  config.misconfig.sessions_per_day = 300;
  const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, 2021);
  telescope::TelescopeGenerator generator(config, registry, deployment);
  const auto crafted = crafted_datagrams();

  // Warm-up: the first batch and one pass over the crafted datagrams.
  net::RecordBatch batch(1024, 1024 * 1500);
  Classifier warm({});
  ASSERT_GT(generator.next_batch(batch), 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (void)warm.classify(util::Timestamp{}, batch.view(i).data);
  }
  for (const auto& datagram : crafted) {
    (void)warm.classify(util::Timestamp{}, datagram);
  }

  MeasuredClassifier measured;
  while (generator.next_batch(batch) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      measured.classify(batch.view(i).data);
    }
  }
  for (const auto& datagram : crafted) measured.classify(datagram);

  ASSERT_GT(measured.datagrams(), 10000u);
  EXPECT_EQ(measured.allocated(), 0u)
      << measured.allocated() << " allocations over " << measured.datagrams()
      << " datagrams";

  // The measured loop saw every packet kind, floods and scans both, and
  // rejected UDP/443 payloads.
  for (std::size_t k = 0; k < kQuicKindCount; ++k) {
    EXPECT_GT(measured.kind(k), 0u)
        << quic::quic_packet_kind_name(static_cast<quic::QuicPacketKind>(k));
  }
  const auto& stats = measured.stats();
  EXPECT_GT(stats.of(TrafficClass::kQuicResponse), 0u);
  EXPECT_GT(stats.of(TrafficClass::kQuicRequest), 0u);
  EXPECT_GT(stats.quic_port_rejects, 0u);
}

/// 600 UDP datagrams of 28 to 1,500 bytes: about 450 KB, several times
/// the reader's 64 KiB chunk, so the measured reads refill its buffer.
std::vector<Bytes> capture_datagrams() {
  util::Rng rng(4242);
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 1, 1);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 9);
  std::vector<Bytes> out;
  for (int i = 0; i < 600; ++i) {
    out.push_back(
        net::build_udp(ip, 443, 40000, rng.bytes(rng.uniform(1473))));
  }
  return out;
}

/// `datagrams` as a classic LINKTYPE_RAW capture in the given byte order,
/// with µs or ns stamps.
std::string classic_capture(const std::vector<Bytes>& datagrams,
                            bool big_endian, bool nanos) {
  std::string out;
  auto put = [&](std::uint32_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      const int shift = 8 * (big_endian ? bytes - 1 - i : i);
      out.push_back(static_cast<char>(v >> shift));
    }
  };
  put(nanos ? net::kPcapMagicNanos : net::kPcapMagicMicros, 4);
  put(2, 2);  // version 2.4
  put(4, 2);
  put(0, 4);  // thiszone
  put(0, 4);  // sigfigs
  put(65535, 4);
  put(net::kLinktypeRaw, 4);
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    const auto size = static_cast<std::uint32_t>(datagrams[i].size());
    put(1617235200 + static_cast<std::uint32_t>(i), 4);
    put(static_cast<std::uint32_t>(i) * (nanos ? 1001 : 1), 4);
    put(size, 4);
    put(size, 4);
    out.append(datagrams[i].begin(), datagrams[i].end());
  }
  return out;
}

/// `datagrams` as a pcapng capture of one Ethernet interface, the frames
/// untagged, 802.1Q-tagged and QinQ-tagged in turn.
std::string pcapng_capture(const std::vector<Bytes>& datagrams,
                           bool big_endian) {
  static constexpr std::uint16_t kQinQ[] = {0x88a8, 0x8100};
  net::TestPcapngWriter writer(big_endian);
  writer.section_header();
  writer.interface_description(net::kLinktypeEthernet);
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    const std::span<const std::uint16_t> tags(kQinQ, i % 3);
    writer.enhanced_packet(0, 1617235200000000ULL + i,
                           net::ethernet_frame(datagrams[i], tags));
  }
  std::ostringstream out;
  writer.flush(out);
  return out.str();
}

TEST(PcapAllocations, NextAllocatesNothingPerRecord) {
  const auto datagrams = capture_datagrams();
  struct Capture {
    const char* name;
    std::string image;
  };
  const Capture captures[] = {
      {"classic µs little-endian", classic_capture(datagrams, false, false)},
      {"classic µs big-endian", classic_capture(datagrams, true, false)},
      {"classic ns little-endian", classic_capture(datagrams, false, true)},
      {"classic ns big-endian", classic_capture(datagrams, true, true)},
      {"pcapng Ethernet+VLAN little-endian", pcapng_capture(datagrams, false)},
      {"pcapng Ethernet+VLAN big-endian", pcapng_capture(datagrams, true)},
  };
  for (const auto& capture : captures) {
    SCOPED_TRACE(capture.name);
    std::istringstream in(capture.image);
    obs::MetricsRegistry metrics;
    net::PcapReader reader(in);
    reader.set_metrics(&metrics);
    ASSERT_TRUE(reader.next().has_value());  // the first record warms up

    const auto before = allocations();
    std::size_t read = 1;
    bool same_bytes = true;
    while (const auto packet = reader.next()) {
      same_bytes =
          same_bytes && std::ranges::equal(packet->data, datagrams[read]);
      ++read;
    }
    const auto allocated = allocations() - before;

    EXPECT_EQ(read, datagrams.size());
    EXPECT_TRUE(same_bytes);
    EXPECT_EQ(allocated, 0u) << allocated << " allocations over "
                             << read - 1 << " records";
  }
}

}  // namespace
}  // namespace quicsand::core
