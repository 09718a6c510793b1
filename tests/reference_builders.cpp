#include "reference_builders.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace quicsand::reference {

using net::Ipv4Address;
using net::Ipv4Header;
using net::IpProtocol;
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

std::vector<std::uint8_t> build_udp(const Ipv4Header& ip, std::uint16_t sport,
                                    std::uint16_t dport,
                                    std::span<const std::uint8_t> payload) {
  ByteWriter w;
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
  return w.take();
}

std::vector<std::uint8_t> build_tcp(const Ipv4Header& ip,
                                    const net::TcpInfo& tcp) {
  ByteWriter w;
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
  return w.take();
}

std::vector<std::uint8_t> build_icmp(const Ipv4Header& ip,
                                     const net::IcmpInfo& icmp) {
  ByteWriter w;
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
  return w.take();
}

std::vector<std::uint8_t> build_icmp_error(
    const Ipv4Header& ip, std::uint8_t type, std::uint8_t code,
    std::span<const std::uint8_t> original_datagram) {
  ByteWriter w;
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
  return w.take();
}

}  // namespace quicsand::reference
