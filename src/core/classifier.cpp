#include "core/classifier.hpp"

#include <limits>

namespace quicsand::core {

namespace {

constexpr std::uint16_t kQuicPort = 443;

/// Folds a walked datagram into a record's QUIC fields. The per-datagram
/// counts saturate at 255, the most their 8-bit fields hold.
class QuicFold final : public quic::PacketSink {
 public:
  void on_packet(const quic::DissectedPacket& packet) override {
    saturating_increment(packet_count_);
    saturating_increment(kind_counts_[static_cast<std::size_t>(packet.kind)]);
    if (version_ == 0 && packet.kind != quic::QuicPacketKind::kShort) {
      version_ = packet.version;
    }
    if (!has_scid_ && !packet.scid.empty()) {
      has_scid_ = true;
      scid_hash_ = packet.scid.hash();
    }
  }

  void commit_to(PacketRecord& record) const {
    record.quic_packet_count = packet_count_;
    record.kind_counts = kind_counts_;
    record.quic_version = version_;
    record.has_scid = has_scid_;
    record.scid_hash = scid_hash_;
  }

 private:
  static void saturating_increment(std::uint8_t& count) {
    if (count < std::numeric_limits<std::uint8_t>::max()) ++count;
  }

  std::uint8_t packet_count_ = 0;
  std::array<std::uint8_t, kQuicKindCount> kind_counts_{};
  std::uint32_t version_ = 0;
  bool has_scid_ = false;
  std::uint64_t scid_hash_ = 0;
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
  ++stats_.total;
  const auto decoded = net::decode_ipv4(data);
  if (!decoded) {
    ++stats_.undecodable;
    return std::nullopt;
  }

  PacketRecord record;
  record.timestamp = timestamp;
  record.src = decoded->ip.src;
  record.dst = decoded->ip.dst;
  // The IPv4 total length, which decode_ipv4 has checked against the
  // capture: a capture can be longer than its datagram (and than 65,535).
  record.wire_size = decoded->ip.total_length;

  if (decoded->is_udp()) {
    const auto& udp = decoded->udp();
    record.src_port = udp.src_port;
    record.dst_port = udp.dst_port;
    if (udp.src_port == kQuicPort || udp.dst_port == kQuicPort) {
      QuicFold fold;
      if (quic::walk_udp_payload(udp.payload, fold) == nullptr) {
        // Source port 443 -> response (backscatter); destination port
        // 443 -> request (scan). The two sets are disjoint by
        // construction: src==dst==443 is treated as a response.
        record.cls = udp.src_port == kQuicPort
                         ? TrafficClass::kQuicResponse
                         : TrafficClass::kQuicRequest;
        fold.commit_to(record);
      } else {
        ++stats_.quic_port_rejects;
        record.cls = TrafficClass::kOther;
      }
    }
  } else if (decoded->is_tcp()) {
    const auto& tcp = decoded->tcp();
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
  return record;
}

}  // namespace quicsand::core
