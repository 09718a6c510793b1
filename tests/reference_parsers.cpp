#include "reference_parsers.hpp"

#include "quic/varint.hpp"
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

}  // namespace

std::optional<net::DecodedPacket> decode_ipv4(
    std::span<const std::uint8_t> data) {
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

    net::DecodedPacket out;
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
    view.connection_id = ConnectionId(r.read_bytes(8));
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

}  // namespace quicsand::reference
