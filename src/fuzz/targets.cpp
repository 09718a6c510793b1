#include "fuzz/targets.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "net/live/frame.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "quic/dissector.hpp"
#include "quic/header.hpp"
#include "quic/transport_params.hpp"
#include "quic/varint.hpp"
#include "util/bytes.hpp"

// Abort with a message when a parser invariant breaks. Active in every
// build type: the fuzz drivers run under asan/ubsan *and* plain
// RelWithDebInfo, and a silent invariant violation is exactly the class
// of bug the subsystem exists to catch.
#define QUICSAND_FUZZ_CHECK(cond, target, what)                          \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "fuzz invariant violated [%s]: %s (%s:%d)\n", \
                   target, what, __FILE__, __LINE__);                    \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

namespace quicsand::fuzz {

namespace {

/// Records every packet the walk hands over.
struct VisitLog final : quic::PacketSink {
  void on_packet(const quic::DissectedPacketView& packet) override {
    packets.emplace_back(packet);
  }
  std::vector<quic::DissectedPacket> packets;
};

bool same_packet(const quic::DissectedPacket& a,
                 const quic::DissectedPacket& b) {
  return a.kind == b.kind && a.version == b.version && a.dcid == b.dcid &&
         a.scid == b.scid && a.token_length == b.token_length &&
         a.size == b.size && a.direction == b.direction;
}

void fuzz_quic_dissect(std::span<const std::uint8_t> data) {
  // Shallow pass: what the bulk classifier runs on every UDP payload.
  const auto shallow = quic::dissect_udp_payload(data);
  // The walk the classifier folds must make the same decision and, on
  // an accepted payload, visit exactly the packets the collector lists.
  VisitLog walked;
  const char* reason = quic::walk_udp_payload(data, walked);
  QUICSAND_FUZZ_CHECK((reason == nullptr) == shallow.is_quic, "quic_dissect",
                      "walk and dissect_udp_payload disagree on is_quic");
  if (reason == nullptr) {
    QUICSAND_FUZZ_CHECK(
        std::equal(walked.packets.begin(), walked.packets.end(),
                   shallow.packets.begin(), shallow.packets.end(),
                   same_packet),
        "quic_dissect", "walk visited other packets than dissect lists");
  } else {
    QUICSAND_FUZZ_CHECK(shallow.reject_reason == reason, "quic_dissect",
                        "walk and dissect_udp_payload disagree on reason");
  }
  if (!shallow.is_quic) {
    QUICSAND_FUZZ_CHECK(shallow.packets.empty(), "quic_dissect",
                        "rejected payload still lists packets");
    QUICSAND_FUZZ_CHECK(!shallow.reject_reason.empty(), "quic_dissect",
                        "rejection without a reason");
  } else {
    QUICSAND_FUZZ_CHECK(!shallow.packets.empty(), "quic_dissect",
                        "accepted payload with no packets");
    std::size_t total = 0;
    for (const auto& packet : shallow.packets) {
      QUICSAND_FUZZ_CHECK(packet.size > 0, "quic_dissect",
                          "zero-size dissected packet");
      QUICSAND_FUZZ_CHECK(packet.size <= data.size(), "quic_dissect",
                          "packet larger than the datagram");
      QUICSAND_FUZZ_CHECK(packet.token_length <= data.size(), "quic_dissect",
                          "token longer than the datagram");
      total += packet.size;
    }
    QUICSAND_FUZZ_CHECK(total <= data.size(), "quic_dissect",
                        "coalesced packet sizes exceed the datagram");
  }
  // Deep pass: Initial decryption as the §6 backscatter validation runs
  // it. Must classify, never throw.
  const auto deep = quic::dissect_udp_payload(data, {.decrypt_initials = true});
  QUICSAND_FUZZ_CHECK(deep.is_quic == shallow.is_quic, "quic_dissect",
                      "deep and shallow passes disagree on is_quic");
  QUICSAND_FUZZ_CHECK(deep.packets.size() == shallow.packets.size(),
                      "quic_dissect",
                      "deep and shallow passes disagree on packet count");
}

void fuzz_quic_header(std::span<const std::uint8_t> data) {
  // Walk coalesced long-header packets exactly like the dissector does.
  std::size_t offset = 0;
  int parsed = 0;
  while (offset < data.size() && parsed < 64) {
    quic::ParseError error{};
    const auto view = quic::parse_long_header(data, offset, &error);
    if (!view) break;
    ++parsed;
    QUICSAND_FUZZ_CHECK(view->packet_start == offset, "quic_header",
                        "view does not start at the requested offset");
    QUICSAND_FUZZ_CHECK(view->packet_end > offset, "quic_header",
                        "empty packet view");
    QUICSAND_FUZZ_CHECK(view->packet_end <= data.size(), "quic_header",
                        "packet end past the buffer");
    QUICSAND_FUZZ_CHECK(view->token.size() == view->token_length ||
                            !view->retry_token.empty(),
                        "quic_header", "token span/length mismatch");
    if (!view->is_version_negotiation() &&
        view->type != quic::PacketType::kRetry) {
      QUICSAND_FUZZ_CHECK(view->pn_offset >= offset &&
                              view->pn_offset < view->packet_end,
                          "quic_header", "pn offset outside the packet");
    }
    offset = view->packet_end;
  }
}

void fuzz_quic_varint(std::span<const std::uint8_t> data) {
  util::ByteReader r(data);
  int decoded = 0;
  try {
    while (!r.empty() && decoded < 4096) {
      const auto before = r.position();
      const std::uint64_t value = quic::read_varint(r);
      const auto consumed = r.position() - before;
      ++decoded;
      QUICSAND_FUZZ_CHECK(value <= quic::kVarintMax, "quic_varint",
                          "decoded value above 2^62-1");
      QUICSAND_FUZZ_CHECK(consumed >= 1 && consumed <= 8, "quic_varint",
                          "varint consumed an impossible byte count");
      // Round-trip: the minimal re-encoding must decode to the same
      // value and never be longer than what the wire used.
      util::ByteWriter w;
      quic::write_varint(w, value);
      QUICSAND_FUZZ_CHECK(w.size() == quic::varint_size(value), "quic_varint",
                          "write_varint size disagrees with varint_size");
      QUICSAND_FUZZ_CHECK(w.size() <= consumed, "quic_varint",
                          "minimal encoding longer than the wire encoding");
      util::ByteReader back(w.view());
      QUICSAND_FUZZ_CHECK(quic::read_varint(back) == value, "quic_varint",
                          "varint round-trip mismatch");
    }
  } catch (const util::BufferUnderflow&) {
    // Truncated tail: the documented failure mode.
  }
}

void fuzz_quic_transport_params(std::span<const std::uint8_t> data) {
  const auto parsed = quic::parse_transport_parameters(data);
  if (!parsed) return;
  // Encode/parse must be idempotent: re-encoding the parsed view and
  // parsing it again yields byte-identical bytes.
  const auto encoded = quic::encode_transport_parameters(*parsed);
  const auto reparsed = quic::parse_transport_parameters(encoded);
  QUICSAND_FUZZ_CHECK(reparsed.has_value(), "quic_transport_params",
                      "re-encoded parameters failed to parse");
  const auto reencoded = quic::encode_transport_parameters(*reparsed);
  QUICSAND_FUZZ_CHECK(encoded == reencoded, "quic_transport_params",
                      "encode/parse round-trip is not stable");
}

void fuzz_live_datagram(std::span<const std::uint8_t> data) {
  // The live socket feeds arbitrary UDP payloads straight into this
  // parse; it must be total and its span must stay inside the input.
  const auto frame = net::live::parse_live_frame(data);
  QUICSAND_FUZZ_CHECK(frame.datagram.size() <= data.size(), "live_datagram",
                      "datagram larger than the payload");
  if (!frame.datagram.empty()) {
    QUICSAND_FUZZ_CHECK(frame.datagram.data() >= data.data() &&
                            frame.datagram.data() + frame.datagram.size() <=
                                data.data() + data.size(),
                        "live_datagram", "datagram span escapes the payload");
  }
  if (frame.encapsulated) {
    // QSL2 carries a send stamp (any i64 the wire says, -1 reserved
    // for "absent"); QSL1 must always report the stamp as absent.
    const bool v2 = frame.send_wall_us >= 0 ||
                    (data.size() >= 4 &&
                     std::equal(std::begin(net::live::kFrameMagicV2),
                                std::end(net::live::kFrameMagicV2),
                                data.begin()));
    const std::size_t header = v2 ? net::live::kFrameHeaderSizeV2
                                  : net::live::kFrameHeaderSize;
    QUICSAND_FUZZ_CHECK(data.size() >= header, "live_datagram",
                        "encapsulated but shorter than the header");
    QUICSAND_FUZZ_CHECK(frame.datagram.size() == data.size() - header,
                        "live_datagram",
                        "encapsulated datagram length mismatch");
    // Re-encoding the parsed frame must reproduce the input bytes;
    // for v2 the round trip also carries the send stamp, and
    // patch_send_stamp must restore the original bytes exactly.
    auto encoded =
        v2 ? net::live::encode_live_frame_v2(frame.timestamp, 0,
                                             frame.datagram)
           : net::live::encode_live_frame(frame.timestamp, frame.datagram);
    if (v2) net::live::patch_send_stamp(encoded, frame.send_wall_us);
    QUICSAND_FUZZ_CHECK(encoded.size() == data.size() &&
                            std::equal(encoded.begin(), encoded.end(),
                                       data.begin()),
                        "live_datagram", "frame round-trip mismatch");
  } else {
    QUICSAND_FUZZ_CHECK(frame.datagram.size() == data.size(),
                        "live_datagram", "bare payload was truncated");
    // patch_send_stamp must be a total no-op on anything that is not a
    // full QSL2 frame.
    std::vector<std::uint8_t> copy(data.begin(), data.end());
    net::live::patch_send_stamp(copy, 1);
    QUICSAND_FUZZ_CHECK(std::equal(copy.begin(), copy.end(), data.begin()),
                        "live_datagram",
                        "patch_send_stamp mutated a non-QSL2 payload");
  }
  // Sharding peek vs the real decoder: quick_ipv4_source may accept
  // more, but must never reject (or disagree on) a datagram
  // net::decode_ipv4 accepts — otherwise shard-by-source and
  // sessionization would partition the same packet differently.
  const auto source = net::live::quick_ipv4_source(frame.datagram);
  if (const auto decoded = net::decode_ipv4(frame.datagram)) {
    QUICSAND_FUZZ_CHECK(source.has_value(), "live_datagram",
                        "quick_ipv4_source rejected a decodable datagram");
    QUICSAND_FUZZ_CHECK(*source == decoded->src().value(), "live_datagram",
                        "quick_ipv4_source disagrees with decode_ipv4");
  }
}

void fuzz_net_headers(std::span<const std::uint8_t> data) {
  const auto decoded = net::decode_ipv4(data);
  net::verify_checksums(data);  // must never throw, any input
  if (!decoded) return;
  QUICSAND_FUZZ_CHECK(data.size() >= 20, "net_headers",
                      "decoded an impossibly short datagram");
  if (decoded->is_udp()) {
    const auto& udp = decoded->udp();
    QUICSAND_FUZZ_CHECK(udp.payload.size() <= data.size(), "net_headers",
                        "UDP payload larger than the datagram");
    if (!udp.payload.empty()) {
      QUICSAND_FUZZ_CHECK(udp.payload.data() >= data.data() &&
                              udp.payload.data() + udp.payload.size() <=
                                  data.data() + data.size(),
                          "net_headers", "UDP payload span escapes buffer");
    }
  } else if (decoded->is_icmp()) {
    net::parse_icmp_quote(decoded->icmp().payload);
  }
}

/// Shared by the pcap and pcapng targets: drain the reader, feeding
/// every packet into the IPv4 decoder like analyze_pcap does, then check
/// that its counters saw exactly the packets next() returned. The
/// reader's documented failure mode is std::runtime_error; anything else
/// escapes and crashes the driver.
void drain_capture_reader(std::span<const std::uint8_t> data,
                          const char* target) {
  std::istringstream stream(
      std::string(reinterpret_cast<const char*>(data.data()), data.size()));
  obs::MetricsRegistry metrics;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  try {
    net::PcapReader reader(stream);
    reader.set_metrics(&metrics);
    while (auto packet = reader.next()) {
      QUICSAND_FUZZ_CHECK(packet->data.size() <= data.size(), target,
                          "record larger than the whole capture");
      net::decode_ipv4(packet->data);
      bytes += packet->data.size();
      if (++packets > 16384) break;
    }
  } catch (const std::runtime_error&) {
    // Malformed capture: the documented failure mode.
  }
  QUICSAND_FUZZ_CHECK(metrics.counter("pcap.packets_read").value() == packets,
                      target, "pcap.packets_read differs from next()");
  QUICSAND_FUZZ_CHECK(metrics.counter("pcap.bytes_read").value() == bytes,
                      target, "pcap.bytes_read differs from next()");
}

void fuzz_pcap(std::span<const std::uint8_t> data) {
  drain_capture_reader(data, "pcap");
}

void fuzz_pcapng(std::span<const std::uint8_t> data) {
  drain_capture_reader(data, "pcapng");
}

constexpr FuzzTarget kTargets[] = {
    {"live_datagram", fuzz_live_datagram,
     "net::live::parse_live_frame + quick_ipv4_source vs decode_ipv4"},
    {"net_headers", fuzz_net_headers,
     "net::decode_ipv4 + checksum verification + ICMP quote parsing"},
    {"pcap", fuzz_pcap, "net::PcapReader over an in-memory capture"},
    {"pcapng", fuzz_pcapng, "net::PcapReader over an in-memory pcapng capture"},
    {"quic_dissect", fuzz_quic_dissect,
     "quic::dissect_udp_payload, shallow and deep (Initial decryption)"},
    {"quic_header", fuzz_quic_header,
     "quic::parse_long_header over coalesced packets"},
    {"quic_transport_params", fuzz_quic_transport_params,
     "quic::parse_transport_parameters + round-trip stability"},
    {"quic_varint", fuzz_quic_varint,
     "quic::read_varint stream decode + round-trip"},
};

}  // namespace

std::span<const FuzzTarget> all_targets() { return kTargets; }

const FuzzTarget* find_target(std::string_view name) {
  for (const auto& target : kTargets) {
    if (target.name == name) return &target;
  }
  return nullptr;
}

void run_target(std::string_view name, std::span<const std::uint8_t> data) {
  const auto* target = find_target(name);
  if (target == nullptr) {
    throw std::invalid_argument("unknown fuzz target: " + std::string(name));
  }
  target->fn(data);
}

}  // namespace quicsand::fuzz
