#include "net/headers.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"

namespace quicsand::net {

using util::ByteReader;
using util::load_be16;
using util::load_be32;
using util::store_be16;
using util::store_be32;

namespace {

constexpr std::size_t kIpv4HeaderSize = 20;
constexpr std::size_t kUdpHeaderSize = 8;
constexpr std::size_t kTcpHeaderSize = 20;
constexpr std::size_t kIcmpHeaderSize = 4;
/// RFC 792 quotes the original IP header plus 8 bytes of its payload.
constexpr std::size_t kIcmpQuoteSize = kIpv4HeaderSize + 8;

// Checksums (RFC 1071) are one's-complement sums of big-endian 16-bit
// words. The sums below are plain integer sums of wider words, folded
// to 16 bits by fold16(): a 32-bit word adds the same as its two 16-bit
// halves modulo 0xffff, and a sum is zero only when every word is, so
// the fold gives the 16-bit sum's exact result, 0 versus 0xffff
// included.

/// `sum` folded to 16 bits, end-around carries included; zero only when
/// `sum` is.
std::uint64_t fold16(std::uint64_t sum) {
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return sum;
}

std::uint16_t checksum_fold(std::uint64_t sum) {
  return static_cast<std::uint16_t>(~fold16(sum));
}

/// Sum of `data` as big-endian 16-bit words, an odd final byte padded
/// with a zero byte. Whole 32-bit words are added in the machine's byte
/// order and their folded sum is swapped once, which gives the same
/// result (RFC 1071 §2(B)) without a byte swap per word.
std::uint64_t sum_bytes(std::span<const std::uint8_t> data) {
  std::uint64_t words = 0;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) words += util::load_native32(data, i);
  std::uint64_t sum = fold16(words);
  if constexpr (std::endian::native == std::endian::little) {
    sum = ((sum & 0xff) << 8) | (sum >> 8);
  }
  if (i + 2 <= data.size()) {
    sum += load_be16(data, i);
    i += 2;
  }
  if (i < data.size()) sum += std::uint32_t{data[i]} << 8;
  return sum;
}

/// Pseudo-header sum for UDP/TCP checksums.
std::uint64_t pseudo_header_sum(Ipv4Address src, Ipv4Address dst,
                                IpProtocol proto, std::size_t l4_length) {
  return std::uint64_t{src.value()} + dst.value() +
         static_cast<std::uint32_t>(proto) + l4_length;
}

[[noreturn]] void throw_oversize(std::size_t total, const char* format) {
  throw std::length_error(std::string(format) + " datagram of " +
                          std::to_string(total) +
                          " bytes exceeds the IPv4 limit of 65535");
}

[[noreturn]] void throw_short_buffer(std::size_t have, std::size_t need) {
  throw std::out_of_range("net writer: buffer of " + std::to_string(have) +
                          " bytes for a " + std::to_string(need) +
                          "-byte datagram");
}

/// Size of a datagram whose IPv4 payload is `l4_length` bytes.
std::size_t datagram_size(std::size_t l4_length, const char* format) {
  const std::size_t total = kIpv4HeaderSize + l4_length;
  if (total > 0xffff) throw_oversize(total, format);
  return total;
}

/// The first `size` bytes of `out`, which must hold them.
std::span<std::uint8_t> frame(std::span<std::uint8_t> out, std::size_t size) {
  if (out.size() < size) throw_short_buffer(out.size(), size);
  return out.first(size);
}

/// The IPv4 header of a `total`-byte datagram, into `header` (at least
/// 20 bytes). The checksum is summed from the field values.
void store_ipv4_header(std::span<std::uint8_t> header, const Ipv4Header& ip,
                       IpProtocol protocol, std::uint16_t total) {
  const auto ttl_protocol = static_cast<std::uint16_t>(
      (ip.ttl << 8) | static_cast<std::uint8_t>(protocol));
  store_be16(header, 0, 0x4500);  // version 4, IHL 5, DSCP/ECN 0
  store_be16(header, 2, total);
  store_be16(header, 4, ip.identification);
  store_be16(header, 6, 0x4000);  // DF, no fragments
  store_be16(header, 8, ttl_protocol);
  store_be32(header, 12, ip.src.value());
  store_be32(header, 16, ip.dst.value());
  const std::uint64_t sum = std::uint64_t{0x4500} + total +
                            ip.identification + 0x4000 + ttl_protocol +
                            ip.src.value() + ip.dst.value();
  store_be16(header, 10, checksum_fold(sum));
}

/// Write the IPv4 header of `datagram` (sized by frame()), copy `payload`
/// to its end, and return the payload's checksum sum, taken from the
/// source span rather than the bytes just stored.
std::uint64_t write_ipv4_and_payload(std::span<std::uint8_t> datagram,
                                     const Ipv4Header& ip,
                                     IpProtocol protocol,
                                     std::span<const std::uint8_t> payload) {
  store_ipv4_header(datagram, ip, protocol,
                    static_cast<std::uint16_t>(datagram.size()));
  std::copy(payload.begin(), payload.end(),
            datagram.end() - static_cast<std::ptrdiff_t>(payload.size()));
  return sum_bytes(payload);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  return checksum_fold(sum_bytes(data));
}

std::size_t udp_size(std::size_t payload_size) {
  return datagram_size(kUdpHeaderSize + payload_size, "UDP");
}

std::size_t tcp_size(std::size_t payload_size) {
  return datagram_size(kTcpHeaderSize + payload_size, "TCP");
}

std::size_t icmp_size(std::size_t payload_size) {
  return datagram_size(kIcmpHeaderSize + payload_size, "ICMP");
}

std::size_t icmp_error_size(std::size_t original_size) {
  return icmp_size(4 + std::min(original_size, kIcmpQuoteSize));
}

void write_ipv4_header(std::span<std::uint8_t> out, const Ipv4Header& ip,
                       std::size_t l4_length) {
  const std::size_t total = datagram_size(l4_length, "IPv4");
  store_ipv4_header(frame(out, kIpv4HeaderSize), ip, ip.protocol,
                    static_cast<std::uint16_t>(total));
}

std::size_t write_udp(std::span<std::uint8_t> out, const Ipv4Header& ip,
                      std::uint16_t sport, std::uint16_t dport,
                      std::span<const std::uint8_t> payload) {
  const auto datagram = frame(out, udp_size(payload.size()));
  const auto l4_length =
      static_cast<std::uint16_t>(datagram.size() - kIpv4HeaderSize);
  std::uint64_t sum =
      write_ipv4_and_payload(datagram, ip, IpProtocol::kUdp, payload);
  const auto udp = datagram.subspan(kIpv4HeaderSize, kUdpHeaderSize);
  store_be16(udp, 0, sport);
  store_be16(udp, 2, dport);
  store_be16(udp, 4, l4_length);
  sum += pseudo_header_sum(ip.src, ip.dst, IpProtocol::kUdp, l4_length) +
         sport + dport + l4_length;
  std::uint16_t csum = checksum_fold(sum);
  if (csum == 0) csum = 0xffff;  // RFC 768: transmitted zero means "none"
  store_be16(udp, 6, csum);
  return datagram.size();
}

std::size_t write_tcp(std::span<std::uint8_t> out, const Ipv4Header& ip,
                      const TcpInfo& tcp) {
  const auto datagram = frame(out, tcp_size(tcp.payload.size()));
  const std::size_t l4_length = datagram.size() - kIpv4HeaderSize;
  std::uint64_t sum =
      write_ipv4_and_payload(datagram, ip, IpProtocol::kTcp, tcp.payload);
  const auto header = datagram.subspan(kIpv4HeaderSize, kTcpHeaderSize);
  const std::uint16_t offset_flags =
      static_cast<std::uint16_t>(0x5000 | tcp.flags);  // data offset 5
  store_be16(header, 0, tcp.src_port);
  store_be16(header, 2, tcp.dst_port);
  store_be32(header, 4, tcp.seq);
  store_be32(header, 8, tcp.ack);
  store_be16(header, 12, offset_flags);
  store_be16(header, 14, 0xffff);  // window
  store_be16(header, 18, 0);       // urgent pointer
  sum += pseudo_header_sum(ip.src, ip.dst, IpProtocol::kTcp, l4_length) +
         tcp.src_port + tcp.dst_port + tcp.seq + tcp.ack + offset_flags +
         0xffff;
  store_be16(header, 16, checksum_fold(sum));
  return datagram.size();
}

std::size_t write_icmp(std::span<std::uint8_t> out, const Ipv4Header& ip,
                       const IcmpInfo& icmp) {
  const auto datagram = frame(out, icmp_size(icmp.payload.size()));
  std::uint64_t sum =
      write_ipv4_and_payload(datagram, ip, IpProtocol::kIcmp, icmp.payload);
  const auto header = datagram.subspan(kIpv4HeaderSize, kIcmpHeaderSize);
  const std::uint16_t type_code =
      static_cast<std::uint16_t>((icmp.type << 8) | icmp.code);
  store_be16(header, 0, type_code);
  sum += type_code;
  store_be16(header, 2, checksum_fold(sum));
  return datagram.size();
}

std::size_t write_icmp_error(std::span<std::uint8_t> out,
                             const Ipv4Header& ip, std::uint8_t type,
                             std::uint8_t code,
                             std::span<const std::uint8_t> original_datagram) {
  // Unused/zero field (4 bytes), then the quote.
  const auto quote = original_datagram.first(
      std::min(original_datagram.size(), kIcmpQuoteSize));
  const auto datagram = frame(out, icmp_error_size(quote.size()));
  std::uint64_t sum =
      write_ipv4_and_payload(datagram, ip, IpProtocol::kIcmp, quote);
  const auto header = datagram.subspan(kIpv4HeaderSize, kIcmpHeaderSize + 4);
  const std::uint16_t type_code =
      static_cast<std::uint16_t>((type << 8) | code);
  store_be16(header, 0, type_code);
  store_be32(header, 4, 0);
  sum += type_code;
  store_be16(header, 2, checksum_fold(sum));
  return datagram.size();
}

std::vector<std::uint8_t> build_udp(const Ipv4Header& ip, std::uint16_t sport,
                                    std::uint16_t dport,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out(udp_size(payload.size()));
  write_udp(out, ip, sport, dport, payload);
  return out;
}

std::vector<std::uint8_t> build_tcp(const Ipv4Header& ip, const TcpInfo& tcp) {
  std::vector<std::uint8_t> out(tcp_size(tcp.payload.size()));
  write_tcp(out, ip, tcp);
  return out;
}

std::vector<std::uint8_t> build_icmp(const Ipv4Header& ip,
                                     const IcmpInfo& icmp) {
  std::vector<std::uint8_t> out(icmp_size(icmp.payload.size()));
  write_icmp(out, ip, icmp);
  return out;
}

std::vector<std::uint8_t> build_icmp_error(
    const Ipv4Header& ip, std::uint8_t type, std::uint8_t code,
    std::span<const std::uint8_t> original_datagram) {
  std::vector<std::uint8_t> out(icmp_error_size(original_datagram.size()));
  write_icmp_error(out, ip, type, code, original_datagram);
  return out;
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

void DecodedPacket::throw_not(IpProtocol wanted) const {
  throw std::logic_error(
      "DecodedPacket: protocol " + std::to_string(datagram_[9]) +
      " read as " + std::to_string(static_cast<int>(wanted)));
}

std::optional<DecodedPacket> decode_ipv4(std::span<const std::uint8_t> data) {
  // One length check covers every fixed-offset load of the base header.
  if (data.size() < kIpv4HeaderSize || (data[0] >> 4) != 4) {
    return std::nullopt;
  }
  const std::size_t ihl = (data[0] & 0x0f) * std::size_t{4};
  const std::uint16_t total_length = load_be16(data, 2);
  if (ihl < kIpv4HeaderSize || total_length < ihl ||
      total_length > data.size()) {
    return std::nullopt;
  }
  // Options (IHL > 5) are skipped; the L4 header starts at `ihl`. Each
  // case checks what DecodedPacket's accessor for it reads.
  const auto l4 = data.subspan(ihl, total_length - ihl);
  switch (static_cast<IpProtocol>(data[9])) {
    case IpProtocol::kUdp: {
      if (l4.size() < kUdpHeaderSize) return std::nullopt;
      const std::uint16_t udp_len = load_be16(l4, 4);
      if (udp_len < kUdpHeaderSize || udp_len > l4.size()) return std::nullopt;
      break;
    }
    case IpProtocol::kTcp: {
      // Data offset 5..15 words, and the header it names must fit.
      if (l4.size() < kTcpHeaderSize) return std::nullopt;
      const std::size_t data_offset = (l4[12] >> 4) * std::size_t{4};
      if (data_offset < kTcpHeaderSize || data_offset > l4.size()) {
        return std::nullopt;
      }
      break;
    }
    case IpProtocol::kIcmp:
      if (l4.size() < kIcmpHeaderSize) return std::nullopt;
      break;
    default:
      return std::nullopt;
  }
  return DecodedPacket(data.first(total_length),
                       static_cast<std::uint8_t>(ihl));
}

bool verify_checksums(std::span<const std::uint8_t> data) {
  if (data.size() < kIpv4HeaderSize) return false;
  const std::size_t ihl = (data[0] & 0x0f) * std::size_t{4};
  if (data.size() < ihl) return false;
  if (internet_checksum(data.first(ihl)) != 0) return false;

  const auto decoded = decode_ipv4(data);
  if (!decoded) return false;
  const std::size_t l4_len = decoded->total_length() - ihl;
  const auto l4 = data.subspan(ihl, l4_len);

  switch (decoded->protocol()) {
    case IpProtocol::kUdp:
      // A transmitted zero means "no checksum" (RFC 768) — scanners
      // commonly send that; it verifies trivially.
      if (l4.size() >= 8 && l4[6] == 0 && l4[7] == 0) return true;
      [[fallthrough]];
    case IpProtocol::kTcp: {
      const std::uint64_t sum = pseudo_header_sum(
          decoded->src(), decoded->dst(), decoded->protocol(), l4_len);
      return checksum_fold(sum + sum_bytes(l4)) == 0;
    }
    case IpProtocol::kIcmp:
      return internet_checksum(l4) == 0;
  }
  return false;
}

}  // namespace quicsand::net
