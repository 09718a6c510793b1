#include "net/headers.hpp"

#include "util/bytes.hpp"

namespace quicsand::net {

using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::size_t kIpv4HeaderSize = 20;
constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::size_t kTcpHeaderSize = 20;
constexpr std::size_t kIcmpHeaderSize = 4;

std::uint32_t checksum_partial(std::span<const std::uint8_t> data,
                               std::uint32_t sum) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
  return sum;
}

std::uint16_t checksum_fold(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Pseudo-header sum for UDP/TCP checksums.
std::uint32_t pseudo_header_sum(Ipv4Address src, Ipv4Address dst,
                                IpProtocol proto, std::size_t l4_length) {
  std::uint32_t sum = 0;
  sum += src.value() >> 16;
  sum += src.value() & 0xffff;
  sum += dst.value() >> 16;
  sum += dst.value() & 0xffff;
  sum += static_cast<std::uint32_t>(proto);
  sum += static_cast<std::uint32_t>(l4_length);
  return sum;
}

void write_ipv4_header(ByteWriter& w, const Ipv4Header& ip,
                       std::size_t l4_length) {
  const std::size_t total = kIpv4HeaderSize + l4_length;
  const std::size_t header_start = w.size();
  w.write_u8(0x45);  // version 4, IHL 5
  w.write_u8(0);     // DSCP/ECN
  w.write_u16(static_cast<std::uint16_t>(total));
  w.write_u16(ip.identification);
  w.write_u16(0x4000);  // DF, no fragments
  w.write_u8(ip.ttl);
  w.write_u8(static_cast<std::uint8_t>(ip.protocol));
  w.write_u16(0);  // checksum placeholder
  w.write_u32(ip.src.value());
  w.write_u32(ip.dst.value());
  const auto header = w.view().subspan(header_start, kIpv4HeaderSize);
  w.patch_be(header_start + 10, internet_checksum(header), 2);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return checksum_fold(checksum_partial(data, 0));
}

void build_udp_into(ByteWriter& w, const Ipv4Header& ip, std::uint16_t sport,
                    std::uint16_t dport,
                    std::span<const std::uint8_t> payload) {
  const std::size_t l4_length = kUdpHeaderSize + payload.size();
  Ipv4Header header = ip;
  header.protocol = IpProtocol::kUdp;
  write_ipv4_header(w, header, l4_length);

  const std::size_t udp_start = w.size();
  w.write_u16(sport);
  w.write_u16(dport);
  w.write_u16(static_cast<std::uint16_t>(l4_length));
  w.write_u16(0);  // checksum placeholder
  w.write_bytes(payload);

  std::uint32_t sum =
      pseudo_header_sum(ip.src, ip.dst, IpProtocol::kUdp, l4_length);
  sum = checksum_partial(w.view().subspan(udp_start), sum);
  std::uint16_t csum = checksum_fold(sum);
  if (csum == 0) csum = 0xffff;  // RFC 768: transmitted zero means "none"
  w.patch_be(udp_start + 6, csum, 2);
}

std::vector<std::uint8_t> build_udp(const Ipv4Header& ip, std::uint16_t sport,
                                    std::uint16_t dport,
                                    std::span<const std::uint8_t> payload) {
  ByteWriter w(kIpv4HeaderSize + kUdpHeaderSize + payload.size());
  build_udp_into(w, ip, sport, dport, payload);
  return w.take();
}

void build_tcp_into(ByteWriter& w, const Ipv4Header& ip, const TcpInfo& tcp) {
  const std::size_t l4_length = kTcpHeaderSize + tcp.payload.size();
  Ipv4Header header = ip;
  header.protocol = IpProtocol::kTcp;
  write_ipv4_header(w, header, l4_length);

  const std::size_t tcp_start = w.size();
  w.write_u16(tcp.src_port);
  w.write_u16(tcp.dst_port);
  w.write_u32(tcp.seq);
  w.write_u32(tcp.ack);
  w.write_u8(0x50);  // data offset 5, no options
  w.write_u8(tcp.flags);
  w.write_u16(0xffff);  // window
  w.write_u16(0);       // checksum placeholder
  w.write_u16(0);       // urgent pointer
  w.write_bytes(tcp.payload);

  std::uint32_t sum =
      pseudo_header_sum(ip.src, ip.dst, IpProtocol::kTcp, l4_length);
  sum = checksum_partial(w.view().subspan(tcp_start), sum);
  w.patch_be(tcp_start + 16, checksum_fold(sum), 2);
}

std::vector<std::uint8_t> build_tcp(const Ipv4Header& ip, const TcpInfo& tcp) {
  ByteWriter w(kIpv4HeaderSize + kTcpHeaderSize + tcp.payload.size());
  build_tcp_into(w, ip, tcp);
  return w.take();
}

void build_icmp_into(ByteWriter& w, const Ipv4Header& ip,
                     const IcmpInfo& icmp) {
  const std::size_t l4_length = kIcmpHeaderSize + icmp.payload.size();
  Ipv4Header header = ip;
  header.protocol = IpProtocol::kIcmp;
  write_ipv4_header(w, header, l4_length);

  const std::size_t icmp_start = w.size();
  w.write_u8(icmp.type);
  w.write_u8(icmp.code);
  w.write_u16(0);  // checksum placeholder
  w.write_bytes(icmp.payload);
  w.patch_be(icmp_start + 2,
             internet_checksum(w.view().subspan(icmp_start)), 2);
}

std::vector<std::uint8_t> build_icmp(const Ipv4Header& ip,
                                     const IcmpInfo& icmp) {
  ByteWriter w(kIpv4HeaderSize + kIcmpHeaderSize + icmp.payload.size());
  build_icmp_into(w, ip, icmp);
  return w.take();
}

void build_icmp_error_into(ByteWriter& w, const Ipv4Header& ip,
                           std::uint8_t type, std::uint8_t code,
                           std::span<const std::uint8_t> original_datagram) {
  // Unused/zero field (4 bytes) + original IP header + first 8 bytes of
  // the original payload (RFC 792), written inline so no temporary quote
  // buffer is materialised.
  const std::size_t quoted_len =
      std::min<std::size_t>(original_datagram.size(), kIpv4HeaderSize + 8);
  const std::size_t l4_length = kIcmpHeaderSize + 4 + quoted_len;
  Ipv4Header header = ip;
  header.protocol = IpProtocol::kIcmp;
  write_ipv4_header(w, header, l4_length);

  const std::size_t icmp_start = w.size();
  w.write_u8(type);
  w.write_u8(code);
  w.write_u16(0);  // checksum placeholder
  w.write_u32(0);  // unused field
  w.write_bytes(original_datagram.first(quoted_len));
  w.patch_be(icmp_start + 2,
             internet_checksum(w.view().subspan(icmp_start)), 2);
}

std::vector<std::uint8_t> build_icmp_error(
    const Ipv4Header& ip, std::uint8_t type, std::uint8_t code,
    std::span<const std::uint8_t> original_datagram) {
  ByteWriter w;
  build_icmp_error_into(w, ip, type, code, original_datagram);
  return w.take();
}

std::optional<IcmpQuote> parse_icmp_quote(
    std::span<const std::uint8_t> icmp_payload) {
  try {
    ByteReader r(icmp_payload);
    r.skip(4);  // unused field
    const std::uint8_t version_ihl = r.read_u8();
    if ((version_ihl >> 4) != 4) return std::nullopt;
    const std::size_t ihl = (version_ihl & 0x0f) * std::size_t{4};
    if (ihl < kIpv4HeaderSize) return std::nullopt;
    r.skip(7);  // dscp(1), total length(2), id(2), flags/fragment(2)
    IcmpQuote quote;
    r.skip(1);  // ttl
    quote.protocol = static_cast<IpProtocol>(r.read_u8());
    r.skip(2);  // checksum
    quote.original_src = Ipv4Address(r.read_u32().to_host());
    quote.original_dst = Ipv4Address(r.read_u32().to_host());
    r.skip(ihl - kIpv4HeaderSize);  // options
    if ((quote.protocol == IpProtocol::kUdp ||
         quote.protocol == IpProtocol::kTcp) &&
        r.remaining() >= 4) {
      quote.src_port = r.read_u16().to_host();
      quote.dst_port = r.read_u16().to_host();
    }
    return quote;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<DecodedPacket> decode_ipv4(std::span<const std::uint8_t> data) {
  // One length check covers every fixed-offset load of the base header.
  if (data.size() < kIpv4HeaderSize || (data[0] >> 4) != 4) {
    return std::nullopt;
  }
  const std::size_t ihl = (data[0] & 0x0f) * std::size_t{4};
  const std::uint16_t total_length = util::load_be16(data, 2);
  if (ihl < kIpv4HeaderSize || total_length < ihl ||
      total_length > data.size()) {
    return std::nullopt;
  }
  const auto protocol = static_cast<IpProtocol>(data[9]);
  DecodedPacket out;
  out.ip = {Ipv4Address(util::load_be32(data, 12)),
            Ipv4Address(util::load_be32(data, 16)),
            protocol,
            data[8],
            util::load_be16(data, 4),
            total_length};
  // Options (IHL > 5) are skipped; the L4 header starts at `ihl`.
  const auto l4 = data.subspan(ihl, total_length - ihl);

  switch (protocol) {
    case IpProtocol::kUdp: {
      if (l4.size() < kUdpHeaderSize) return std::nullopt;
      const std::uint16_t udp_len = util::load_be16(l4, 4);
      if (udp_len < kUdpHeaderSize || udp_len > l4.size()) return std::nullopt;
      out.l4 = UdpInfo{util::load_be16(l4, 0), util::load_be16(l4, 2),
                       l4.subspan(kUdpHeaderSize, udp_len - kUdpHeaderSize)};
      return out;
    }
    case IpProtocol::kTcp: {
      // Data offset 5..15 words, and the header it names must fit.
      if (l4.size() < kTcpHeaderSize) return std::nullopt;
      const std::size_t data_offset = (l4[12] >> 4) * std::size_t{4};
      if (data_offset < kTcpHeaderSize || data_offset > l4.size()) {
        return std::nullopt;
      }
      out.l4 = TcpInfo{util::load_be16(l4, 0), util::load_be16(l4, 2),
                       util::load_be32(l4, 4), util::load_be32(l4, 8),
                       l4[13], l4.subspan(data_offset)};
      return out;
    }
    case IpProtocol::kIcmp: {
      if (l4.size() < kIcmpHeaderSize) return std::nullopt;
      out.l4 = IcmpInfo{l4[0], l4[1], l4.subspan(kIcmpHeaderSize)};
      return out;
    }
    default:
      return std::nullopt;
  }
}

bool verify_checksums(std::span<const std::uint8_t> data) {
  if (data.size() < kIpv4HeaderSize) return false;
  const std::size_t ihl = (data[0] & 0x0f) * std::size_t{4};
  if (data.size() < ihl) return false;
  if (internet_checksum(data.first(ihl)) != 0) return false;

  const auto decoded = decode_ipv4(data);
  if (!decoded) return false;
  const std::size_t l4_len = decoded->ip.total_length - ihl;
  const auto l4 = data.subspan(ihl, l4_len);

  switch (decoded->ip.protocol) {
    case IpProtocol::kUdp:
      // A transmitted zero means "no checksum" (RFC 768) — scanners
      // commonly send that; it verifies trivially.
      if (l4.size() >= 8 && l4[6] == 0 && l4[7] == 0) return true;
      [[fallthrough]];
    case IpProtocol::kTcp: {
      std::uint32_t sum = pseudo_header_sum(
          decoded->ip.src, decoded->ip.dst, decoded->ip.protocol, l4_len);
      return checksum_fold(checksum_partial(l4, sum)) == 0;
    }
    case IpProtocol::kIcmp:
      return internet_checksum(l4) == 0;
  }
  return false;
}

}  // namespace quicsand::net
