// IPv4 / UDP / TCP / ICMP header encoding and decoding.
//
// The telescope captures raw IPv4 datagrams; every synthetic packet in the
// simulator is a real, checksummed byte sequence built here, and the
// analysis side parses those bytes back. This keeps the generator and the
// analyzer honest: they only communicate through the wire format, exactly
// like the paper's pipeline (pcap in, dissector out).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "net/ip.hpp"

namespace quicsand::net {

/// Internet checksum (RFC 1071) over a byte span.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

struct Ipv4Header {
  Ipv4Address src;
  Ipv4Address dst;
  IpProtocol protocol = IpProtocol::kUdp;
  std::uint8_t ttl = 64;
  std::uint16_t identification = 0;
  std::uint16_t total_length = 0;  // filled by the serializer
};

/// TCP flag bits as they appear in the header.
struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
};

struct UdpInfo {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::span<const std::uint8_t> payload;
};

struct TcpInfo {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::span<const std::uint8_t> payload;
};

struct IcmpInfo {
  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::span<const std::uint8_t> payload;
};

/// Decoded view into a raw IPv4 datagram. Spans point into the original
/// buffer, which must outlive the view.
struct DecodedPacket {
  Ipv4Header ip;
  std::variant<UdpInfo, TcpInfo, IcmpInfo> l4;

  [[nodiscard]] bool is_udp() const {
    return std::holds_alternative<UdpInfo>(l4);
  }
  [[nodiscard]] bool is_tcp() const {
    return std::holds_alternative<TcpInfo>(l4);
  }
  [[nodiscard]] bool is_icmp() const {
    return std::holds_alternative<IcmpInfo>(l4);
  }
  [[nodiscard]] const UdpInfo& udp() const { return std::get<UdpInfo>(l4); }
  [[nodiscard]] const TcpInfo& tcp() const { return std::get<TcpInfo>(l4); }
  [[nodiscard]] const IcmpInfo& icmp() const { return std::get<IcmpInfo>(l4); }
};

/// Wire size of the datagram each writer below produces for a payload
/// (for icmp_error_size: an original datagram) of the given size. Each
/// throws std::length_error when the size exceeds the 65,535 bytes an
/// IPv4 total length can express.
std::size_t udp_size(std::size_t payload_size);
std::size_t tcp_size(std::size_t payload_size);
std::size_t icmp_size(std::size_t payload_size);
std::size_t icmp_error_size(std::size_t original_size);

/// Fixed-offset writers: each writes one complete datagram with valid
/// checksums to the front of `out` and returns its size (the matching
/// *_size() above). They throw std::length_error as *_size() does, and
/// std::out_of_range when `out` is shorter than the datagram.
std::size_t write_udp(std::span<std::uint8_t> out, const Ipv4Header& ip,
                      std::uint16_t sport, std::uint16_t dport,
                      std::span<const std::uint8_t> payload);

/// IPv4+TCP segment, no options.
std::size_t write_tcp(std::span<std::uint8_t> out, const Ipv4Header& ip,
                      const TcpInfo& tcp);

std::size_t write_icmp(std::span<std::uint8_t> out, const Ipv4Header& ip,
                       const IcmpInfo& icmp);

/// ICMP error (e.g. destination/port unreachable) quoting the original
/// datagram's IP header plus its first 8 payload bytes, as RFC 792
/// requires. This is what real UDP backscatter looks like when a victim
/// rejects a spoofed probe.
std::size_t write_icmp_error(std::span<std::uint8_t> out,
                             const Ipv4Header& ip, std::uint8_t type,
                             std::uint8_t code,
                             std::span<const std::uint8_t> original_datagram);

/// The 20-byte IPv4 header alone (no options, DF set) of a datagram
/// carrying `l4_length` bytes of `ip.protocol`; `ip.total_length` is
/// ignored. For callers that patch a prebuilt datagram in place.
void write_ipv4_header(std::span<std::uint8_t> out, const Ipv4Header& ip,
                       std::size_t l4_length);

/// The writers above, returning a fresh vector.
std::vector<std::uint8_t> build_udp(const Ipv4Header& ip, std::uint16_t sport,
                                    std::uint16_t dport,
                                    std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> build_tcp(const Ipv4Header& ip, const TcpInfo& tcp);
std::vector<std::uint8_t> build_icmp(const Ipv4Header& ip,
                                     const IcmpInfo& icmp);
std::vector<std::uint8_t> build_icmp_error(
    const Ipv4Header& ip, std::uint8_t type, std::uint8_t code,
    std::span<const std::uint8_t> original_datagram);

/// The original datagram summary quoted inside an ICMP error payload.
struct IcmpQuote {
  Ipv4Address original_src;
  Ipv4Address original_dst;
  IpProtocol protocol = IpProtocol::kUdp;
  std::uint16_t src_port = 0;  ///< UDP/TCP only
  std::uint16_t dst_port = 0;
};

/// Parse the quote out of an ICMP error payload (the bytes after the
/// 4-byte ICMP header). Returns nullopt when no valid quote is present.
std::optional<IcmpQuote> parse_icmp_quote(
    std::span<const std::uint8_t> icmp_payload);

/// Parse a raw IPv4 datagram. Returns nullopt on truncation, bad version,
/// or unsupported protocol. Checksums are NOT verified here (telescopes
/// keep packets with bad checksums too); use verify_checksums() if needed.
std::optional<DecodedPacket> decode_ipv4(std::span<const std::uint8_t> data);

/// Verify the IPv4 header checksum and, for UDP/TCP, the L4 checksum.
bool verify_checksums(std::span<const std::uint8_t> data);

}  // namespace quicsand::net
