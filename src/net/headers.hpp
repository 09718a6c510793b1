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
#include <vector>

#include "net/ip.hpp"
#include "util/bytes.hpp"

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

/// An IPv4 datagram decode_ipv4() accepted, read in place: each accessor
/// loads its field from the datagram at its fixed offset, so a caller
/// reads only the fields it uses and nothing is copied up front. Spans
/// point into the datagram, which must outlive the view. udp(), tcp()
/// and icmp() throw std::logic_error unless the matching is_*() holds.
class DecodedPacket {
 public:
  [[nodiscard]] Ipv4Address src() const {
    return Ipv4Address(util::load_be32(datagram_, 12));
  }
  [[nodiscard]] Ipv4Address dst() const {
    return Ipv4Address(util::load_be32(datagram_, 16));
  }
  [[nodiscard]] IpProtocol protocol() const {
    return static_cast<IpProtocol>(datagram_[9]);
  }
  [[nodiscard]] std::uint8_t ttl() const { return datagram_[8]; }
  [[nodiscard]] std::uint16_t identification() const {
    return util::load_be16(datagram_, 4);
  }
  /// The IPv4 total length, which decode_ipv4() checked against the
  /// capture: a capture can be longer than its datagram.
  [[nodiscard]] std::uint16_t total_length() const {
    return static_cast<std::uint16_t>(datagram_.size());
  }

  [[nodiscard]] bool is_udp() const { return protocol() == IpProtocol::kUdp; }
  [[nodiscard]] bool is_tcp() const { return protocol() == IpProtocol::kTcp; }
  [[nodiscard]] bool is_icmp() const {
    return protocol() == IpProtocol::kIcmp;
  }
  [[nodiscard]] UdpInfo udp() const {
    if (!is_udp()) throw_not(IpProtocol::kUdp);
    const auto l4 = datagram_.subspan(ihl_);
    return {util::load_be16(l4, 0), util::load_be16(l4, 2),
            l4.subspan(8, util::load_be16(l4, 4) - std::size_t{8})};
  }
  [[nodiscard]] TcpInfo tcp() const {
    if (!is_tcp()) throw_not(IpProtocol::kTcp);
    const auto l4 = datagram_.subspan(ihl_);
    return {util::load_be16(l4, 0), util::load_be16(l4, 2),
            util::load_be32(l4, 4), util::load_be32(l4, 8), l4[13],
            l4.subspan((l4[12] >> 4) * std::size_t{4})};
  }
  [[nodiscard]] IcmpInfo icmp() const {
    if (!is_icmp()) throw_not(IpProtocol::kIcmp);
    const auto l4 = datagram_.subspan(ihl_);
    return {l4[0], l4[1], l4.subspan(4)};
  }

 private:
  friend std::optional<DecodedPacket> decode_ipv4(
      std::span<const std::uint8_t> data);

  DecodedPacket(std::span<const std::uint8_t> datagram, std::uint8_t ihl)
      : datagram_(datagram), ihl_(ihl) {}

  [[noreturn]] void throw_not(IpProtocol wanted) const;

  std::span<const std::uint8_t> datagram_;  ///< the first total_length bytes
  std::uint8_t ihl_;                        ///< IPv4 header bytes, 20..60
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

/// Check a raw IPv4 datagram and its UDP, TCP or ICMP header, reading
/// each length field once. Returns nullopt on truncation, bad version,
/// or unsupported protocol. Checksums are NOT verified here (telescopes
/// keep packets with bad checksums too); use verify_checksums() if needed.
std::optional<DecodedPacket> decode_ipv4(std::span<const std::uint8_t> data);

/// Verify the IPv4 header checksum and, for UDP/TCP, the L4 checksum.
bool verify_checksums(std::span<const std::uint8_t> data);

}  // namespace quicsand::net
