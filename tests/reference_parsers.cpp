#include "reference_parsers.hpp"

#include <algorithm>

#include "quic/varint.hpp"
#include "quic/version.hpp"
#include "util/bytes.hpp"

namespace quicsand::reference {

using util::ByteReader;

namespace {

constexpr std::size_t kIpv4HeaderSize = 20;
constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::size_t kTcpHeaderSize = 20;
constexpr std::size_t kIcmpHeaderSize = 4;

/// The varint decode the reference parser used: byte by byte, throwing
/// util::BufferUnderflow when truncated.
std::uint64_t read_varint(ByteReader& r) {
  const std::uint8_t first = r.read_u8();
  const int prefix = first >> 6;
  std::uint64_t value = first & 0x3f;
  const int extra = (1 << prefix) - 1;
  for (int i = 0; i < extra; ++i) {
    value = (value << 8) | r.read_u8();
  }
  return value;
}

/// One packet of a walked payload, as the reference fold reads it.
struct WalkedPacket {
  quic::QuicPacketKind kind = quic::QuicPacketKind::kShort;
  std::uint32_t version = 0;
  std::vector<std::uint8_t> scid;
};

/// The packets of an accepted UDP/443 payload, nullopt for one the
/// dissector rejects: short headers of at least 21 bytes with the fixed
/// bit, gQUIC public headers, gQUIC-versioned long headers, then
/// coalesced IETF long headers, where trailing zero padding or a
/// short-header packet may end the datagram.
std::optional<std::vector<WalkedPacket>> walk(
    std::span<const std::uint8_t> payload) {
  using quic::QuicPacketKind;
  if (payload.empty()) return std::nullopt;
  const std::uint8_t first = payload[0];
  if (!quic::is_long_header_byte(first)) {
    if (quic::has_fixed_bit(first) && payload.size() >= 21) {
      return std::vector<WalkedPacket>{{QuicPacketKind::kShort, 0, {}}};
    }
    if (const auto gquic = reference::parse_gquic_packet(payload)) {
      return std::vector<WalkedPacket>{
          {QuicPacketKind::kGquic, gquic->version, {}}};
    }
    return std::nullopt;
  }
  if (payload.size() >= 5) {
    ByteReader r(payload.subspan(1));
    const std::uint32_t version = r.read_u32().to_host();
    const auto family = quic::version_family(version);
    if (family == quic::VersionFamily::kGquic) {
      return std::vector<WalkedPacket>{{QuicPacketKind::kGquic, version, {}}};
    }
    if (family == quic::VersionFamily::kUnknown &&
        !quic::is_grease_version(version)) {
      return std::nullopt;
    }
  }
  std::vector<WalkedPacket> packets;
  std::size_t offset = 0;
  while (offset < payload.size()) {
    const auto rest = payload.subspan(offset);
    if (!packets.empty() &&
        std::ranges::all_of(rest, [](std::uint8_t b) { return b == 0; })) {
      break;
    }
    if (!quic::is_long_header_byte(rest[0])) {
      if (packets.empty() || !quic::has_fixed_bit(rest[0])) {
        return std::nullopt;
      }
      packets.push_back({QuicPacketKind::kShort, 0, {}});
      break;
    }
    const auto view = reference::parse_long_header(payload, offset);
    if (!view) return std::nullopt;
    static constexpr QuicPacketKind kKinds[] = {
        QuicPacketKind::kInitial, QuicPacketKind::kZeroRtt,
        QuicPacketKind::kHandshake, QuicPacketKind::kRetry};
    packets.push_back(
        {view->version == 0 ? QuicPacketKind::kVersionNegotiation
                            : kKinds[static_cast<std::size_t>(view->type)],
         view->version,
         {view->scid.bytes().begin(), view->scid.bytes().end()}});
    offset = view->packet_end;
  }
  if (packets.empty()) return std::nullopt;
  return packets;
}

/// FNV-1a, 64-bit.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

std::uint8_t saturating_add(std::uint8_t count) {
  return count == 255 ? count : static_cast<std::uint8_t>(count + 1);
}

}  // namespace

std::optional<DecodedPacket> decode_ipv4(std::span<const std::uint8_t> data) {
  using net::IpProtocol;
  try {
    ByteReader r(data);
    const std::uint8_t version_ihl = r.read_u8();
    if ((version_ihl >> 4) != 4) return std::nullopt;
    const std::size_t ihl = (version_ihl & 0x0f) * std::size_t{4};
    if (ihl < kIpv4HeaderSize || data.size() < ihl) return std::nullopt;
    r.skip(1);  // DSCP/ECN
    const std::uint16_t total_length = r.read_u16().to_host();
    if (total_length < ihl || total_length > data.size()) return std::nullopt;
    const std::uint16_t identification = r.read_u16().to_host();
    r.skip(2);  // flags/fragment
    const std::uint8_t ttl = r.read_u8();
    const std::uint8_t protocol = r.read_u8();
    r.skip(2);  // checksum
    const net::Ipv4Address src(r.read_u32().to_host());
    const net::Ipv4Address dst(r.read_u32().to_host());
    // Skip IPv4 options if present.
    r.skip(ihl - kIpv4HeaderSize);

    DecodedPacket out;
    out.ip = {src, dst, static_cast<IpProtocol>(protocol), ttl,
              identification, total_length};
    const std::size_t l4_len = total_length - ihl;
    ByteReader l4(data.subspan(ihl, l4_len));

    switch (static_cast<IpProtocol>(protocol)) {
      case IpProtocol::kUdp: {
        net::UdpInfo udp;
        udp.src_port = l4.read_u16().to_host();
        udp.dst_port = l4.read_u16().to_host();
        const std::uint16_t udp_len = l4.read_u16().to_host();
        l4.skip(2);  // checksum
        if (udp_len < kUdpHeaderSize || udp_len > l4_len) return std::nullopt;
        udp.payload = data.subspan(ihl + kUdpHeaderSize,
                                   udp_len - kUdpHeaderSize);
        out.l4 = udp;
        return out;
      }
      case IpProtocol::kTcp: {
        net::TcpInfo tcp;
        tcp.src_port = l4.read_u16().to_host();
        tcp.dst_port = l4.read_u16().to_host();
        tcp.seq = l4.read_u32().to_host();
        tcp.ack = l4.read_u32().to_host();
        const std::size_t data_offset = (l4.read_u8() >> 4) * std::size_t{4};
        tcp.flags = l4.read_u8();
        if (data_offset < kTcpHeaderSize || data_offset > l4_len) {
          return std::nullopt;
        }
        tcp.payload = data.subspan(ihl + data_offset, l4_len - data_offset);
        out.l4 = tcp;
        return out;
      }
      case IpProtocol::kIcmp: {
        net::IcmpInfo icmp;
        icmp.type = l4.read_u8();
        icmp.code = l4.read_u8();
        l4.skip(2);  // checksum
        icmp.payload = data.subspan(ihl + kIcmpHeaderSize,
                                    l4_len - kIcmpHeaderSize);
        out.l4 = icmp;
        return out;
      }
      default:
        return std::nullopt;
    }
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<LongHeaderView> parse_long_header(
    std::span<const std::uint8_t> data, std::size_t offset,
    quic::ParseError* error) {
  using quic::ConnectionId;
  using quic::PacketType;
  using quic::ParseError;
  auto fail = [&](ParseError e) -> std::optional<LongHeaderView> {
    if (error != nullptr) *error = e;
    return std::nullopt;
  };
  if (offset >= data.size()) return fail(ParseError::kTruncated);

  try {
    ByteReader r(data.subspan(offset));
    const std::uint8_t first = r.read_u8();
    if (!quic::is_long_header_byte(first)) {
      return fail(ParseError::kNotLongHeader);
    }

    LongHeaderView view;
    view.packet_start = offset;
    view.version = r.read_u32().to_host();

    // Version Negotiation: version == 0, fixed bit may be anything.
    if (view.version == 0) {
      const std::size_t dcid_len = r.read_u8();
      if (dcid_len > ConnectionId::kMaxSize) {
        return fail(ParseError::kBadConnectionIdLength);
      }
      view.dcid = ConnectionId(r.read_bytes(dcid_len));
      const std::size_t scid_len = r.read_u8();
      if (scid_len > ConnectionId::kMaxSize) {
        return fail(ParseError::kBadConnectionIdLength);
      }
      view.scid = ConnectionId(r.read_bytes(scid_len));
      if (r.remaining() % 4 != 0 || r.remaining() == 0) {
        return fail(ParseError::kBadLength);
      }
      while (!r.empty()) {
        view.supported_versions.push_back(r.read_u32().to_host());
      }
      view.packet_end = data.size();
      return view;
    }

    if (!quic::has_fixed_bit(first)) return fail(ParseError::kFixedBitClear);
    view.type = static_cast<PacketType>((first >> 4) & 0x03);

    const std::size_t dcid_len = r.read_u8();
    if (dcid_len > ConnectionId::kMaxSize) {
      return fail(ParseError::kBadConnectionIdLength);
    }
    view.dcid = ConnectionId(r.read_bytes(dcid_len));
    const std::size_t scid_len = r.read_u8();
    if (scid_len > ConnectionId::kMaxSize) {
      return fail(ParseError::kBadConnectionIdLength);
    }
    view.scid = ConnectionId(r.read_bytes(scid_len));

    if (view.type == PacketType::kRetry) {
      // Token is everything up to the 16-byte integrity tag.
      if (r.remaining() < 16) return fail(ParseError::kTruncated);
      view.retry_token = r.read_bytes(r.remaining() - 16);
      view.token_length = view.retry_token.size();
      view.packet_end = data.size();
      return view;
    }

    if (view.type == PacketType::kInitial) {
      const std::uint64_t token_len = read_varint(r);
      if (token_len > r.remaining()) return fail(ParseError::kTruncated);
      view.token = r.read_bytes(static_cast<std::size_t>(token_len));
      view.token_length = static_cast<std::size_t>(token_len);
    }

    view.length = read_varint(r);
    view.pn_offset = offset + r.position();
    // Length counts PN + payload; a protected packet needs at least a
    // 1-byte PN plus a 16-byte AEAD tag, and a PN sample of 16 bytes
    // starting 4 bytes in (RFC 9001 §5.4.2).
    if (view.length < 20 || view.length > r.remaining()) {
      return fail(ParseError::kBadLength);
    }
    view.packet_end = view.pn_offset + static_cast<std::size_t>(view.length);
    return view;
  } catch (const util::BufferUnderflow&) {
    return fail(ParseError::kTruncated);
  }
}

std::optional<quic::GquicPacketView> parse_gquic_packet(
    std::span<const std::uint8_t> data) {
  using quic::ConnectionId;
  using quic::GquicPublicFlags;
  try {
    ByteReader r(data);
    const std::uint8_t flags = r.read_u8();
    if (flags & 0x80) return std::nullopt;
    if (flags & GquicPublicFlags::kMultipath) return std::nullopt;
    if (!(flags & GquicPublicFlags::kConnectionId)) return std::nullopt;

    quic::GquicPacketView view;
    view.is_reset = (flags & GquicPublicFlags::kReset) != 0;
    view.connection_id = r.read_bytes(8);
    if (flags & GquicPublicFlags::kVersion) {
      view.has_version = true;
      view.version = r.read_u32().to_host();
      if ((view.version >> 24) != 'Q') return std::nullopt;
    }
    if (view.is_reset) {
      view.header_size = r.position();
      view.payload_size = r.remaining();
      return view;
    }
    // Bits 4-5 of the flags: a 1, 2, 4 or 6-byte packet number.
    constexpr int kPnLengths[] = {1, 2, 4, 6};
    view.packet_number_length = kPnLengths[(flags >> 4) & 0x03];
    std::uint64_t pn = 0;
    for (int i = 0; i < view.packet_number_length; ++i) {
      pn = (pn << 8) | r.read_u8();
    }
    view.packet_number = pn;
    view.header_size = r.position();
    view.payload_size = r.remaining();
    if (view.payload_size < 12) return std::nullopt;
    return view;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<core::PacketRecord> Classifier::classify(
    util::Timestamp timestamp, std::span<const std::uint8_t> data) {
  using core::TrafficClass;
  ++stats_.total;
  const auto decoded = reference::decode_ipv4(data);
  if (!decoded) {
    ++stats_.undecodable;
    return std::nullopt;
  }
  core::PacketRecord record;
  record.timestamp = timestamp;
  record.src = decoded->ip.src;
  record.dst = decoded->ip.dst;
  record.wire_size = decoded->ip.total_length;
  if (const auto* udp = std::get_if<net::UdpInfo>(&decoded->l4)) {
    record.src_port = udp->src_port;
    record.dst_port = udp->dst_port;
    if (udp->src_port == 443 || udp->dst_port == 443) {
      if (const auto packets = walk(udp->payload)) {
        record.cls = udp->src_port == 443 ? TrafficClass::kQuicResponse
                                          : TrafficClass::kQuicRequest;
        for (const auto& packet : *packets) {
          record.quic_packet_count = saturating_add(record.quic_packet_count);
          auto& kind =
              record.kind_counts[static_cast<std::size_t>(packet.kind)];
          kind = saturating_add(kind);
          if (record.quic_version == 0 &&
              packet.kind != quic::QuicPacketKind::kShort) {
            record.quic_version = packet.version;
          }
          if (!record.has_scid && !packet.scid.empty()) {
            record.has_scid = true;
            record.scid_hash = fnv1a(packet.scid);
          }
        }
      } else {
        ++stats_.quic_port_rejects;
      }
    }
  } else if (const auto* tcp = std::get_if<net::TcpInfo>(&decoded->l4)) {
    record.src_port = tcp->src_port;
    record.dst_port = tcp->dst_port;
    const bool syn = (tcp->flags & 0x02) != 0;
    const bool ack = (tcp->flags & 0x10) != 0;
    const bool rst = (tcp->flags & 0x04) != 0;
    if (syn && !ack) {
      record.cls = TrafficClass::kTcpRequest;
    } else if ((syn && ack) || rst) {
      record.cls = TrafficClass::kTcpBackscatter;
    }
  } else {
    const auto type = std::get<net::IcmpInfo>(decoded->l4).type;
    if (type == 0 || type == 3 || type == 4 || type == 11) {
      record.cls = TrafficClass::kIcmpBackscatter;
    }
  }
  record.is_research = std::ranges::any_of(
      config_.research_prefixes, [&](const net::Ipv4Prefix& prefix) {
        return prefix.contains(record.src);
      });
  ++stats_.by_class[static_cast<std::size_t>(record.cls)];
  const bool quic = record.cls == TrafficClass::kQuicRequest ||
                    record.cls == TrafficClass::kQuicResponse;
  if (record.is_research && quic) {
    ++stats_.research;
    if (record.cls == TrafficClass::kQuicRequest) ++stats_.research_requests;
  }
  if (!record.is_research && record.cls != TrafficClass::kOther) ++stats_.kept;
  return record;
}

}  // namespace quicsand::reference
