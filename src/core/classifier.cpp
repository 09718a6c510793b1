#include "core/classifier.hpp"

#include <limits>

namespace quicsand::core {

namespace {

constexpr std::uint16_t kQuicPort = 443;

/// Folds a walked datagram's packets into a record's QUIC fields, in
/// place. The per-datagram counts saturate at 255, the most their 8-bit
/// fields hold; the SCID is hashed where it lies in the datagram.
class QuicFold final : public quic::PacketSink {
 public:
  explicit QuicFold(PacketRecord& record) : record_(record) {}

  void on_packet(const quic::DissectedPacketView& packet) override {
    saturating_increment(record_.quic_packet_count);
    saturating_increment(
        record_.kind_counts[static_cast<std::size_t>(packet.kind)]);
    if (record_.quic_version == 0 &&
        packet.kind != quic::QuicPacketKind::kShort) {
      record_.quic_version = packet.version;
    }
    if (!record_.has_scid && !packet.scid.empty()) {
      record_.has_scid = true;
      record_.scid_hash = quic::connection_id_hash(packet.scid);
    }
  }

  /// Undo the fold, for a payload the walk rejected after folding some
  /// of its packets.
  void clear() {
    record_.quic_packet_count = 0;
    record_.kind_counts = {};
    record_.quic_version = 0;
    record_.has_scid = false;
    record_.scid_hash = 0;
  }

 private:
  static void saturating_increment(std::uint8_t& count) {
    if (count < std::numeric_limits<std::uint8_t>::max()) ++count;
  }

  PacketRecord& record_;
};

bool is_backscatter_icmp(std::uint8_t type) {
  // Echo reply, destination unreachable, source quench, time exceeded:
  // responses a victim (or its network) sends to spoofed probes.
  return type == 0 || type == 3 || type == 4 || type == 11;
}

}  // namespace

void ClassifierStats::merge_from(const ClassifierStats& other) {
  total += other.total;
  undecodable += other.undecodable;
  for (std::size_t i = 0; i < by_class.size(); ++i) {
    by_class[i] += other.by_class[i];
  }
  research += other.research;
  research_requests += other.research_requests;
  kept += other.kept;
  quic_port_rejects += other.quic_port_rejects;
}

const char* traffic_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::kQuicRequest:
      return "quic-request";
    case TrafficClass::kQuicResponse:
      return "quic-response";
    case TrafficClass::kTcpRequest:
      return "tcp-request";
    case TrafficClass::kTcpBackscatter:
      return "tcp-backscatter";
    case TrafficClass::kIcmpBackscatter:
      return "icmp-backscatter";
    case TrafficClass::kOther:
      return "other";
  }
  return "?";
}

Classifier::Classifier(ClassifierConfig config)
    : config_(std::move(config)) {}

std::optional<PacketRecord> Classifier::classify(
    const net::RawPacket& packet) {
  return classify(packet.timestamp, packet.data);
}

std::optional<PacketRecord> Classifier::classify(
    util::Timestamp timestamp, std::span<const std::uint8_t> data) {
  // Every return names `out`, so the record is built in the caller's
  // slot: each field is read from the datagram and written once, there.
  std::optional<PacketRecord> out;
  ++stats_.total;
  const auto decoded = net::decode_ipv4(data);
  if (!decoded) {
    ++stats_.undecodable;
    return out;
  }

  PacketRecord& record = out.emplace();
  record.timestamp = timestamp;
  record.src = decoded->src();
  record.dst = decoded->dst();
  record.wire_size = decoded->total_length();

  if (decoded->is_udp()) {
    const auto udp = decoded->udp();
    record.src_port = udp.src_port;
    record.dst_port = udp.dst_port;
    if (udp.src_port == kQuicPort || udp.dst_port == kQuicPort) {
      QuicFold fold(record);
      if (quic::walk_udp_payload(udp.payload, fold) == nullptr) {
        // Source port 443 -> response (backscatter); destination port
        // 443 -> request (scan). The two sets are disjoint by
        // construction: src==dst==443 is treated as a response.
        record.cls = udp.src_port == kQuicPort
                         ? TrafficClass::kQuicResponse
                         : TrafficClass::kQuicRequest;
      } else {
        fold.clear();
        ++stats_.quic_port_rejects;
        record.cls = TrafficClass::kOther;
      }
    }
  } else if (decoded->is_tcp()) {
    const auto tcp = decoded->tcp();
    record.src_port = tcp.src_port;
    record.dst_port = tcp.dst_port;
    const bool syn = tcp.flags & net::TcpFlags::kSyn;
    const bool ack = tcp.flags & net::TcpFlags::kAck;
    const bool rst = tcp.flags & net::TcpFlags::kRst;
    if (syn && !ack) {
      record.cls = TrafficClass::kTcpRequest;
    } else if ((syn && ack) || rst) {
      record.cls = TrafficClass::kTcpBackscatter;
    }
  } else if (decoded->is_icmp()) {
    if (is_backscatter_icmp(decoded->icmp().type)) {
      record.cls = TrafficClass::kIcmpBackscatter;
    }
  }

  for (const auto& prefix : config_.research_prefixes) {
    if (prefix.contains(record.src)) {
      record.is_research = true;
      break;
    }
  }
  ++stats_.by_class[static_cast<std::size_t>(record.cls)];
  if (record.is_research && record.is_quic()) {
    ++stats_.research;
    if (record.cls == TrafficClass::kQuicRequest) {
      ++stats_.research_requests;
    }
  }
  if (keep_for_analysis(record)) ++stats_.kept;
  return out;
}

}  // namespace quicsand::core
