// Reference copies of the IPv4/UDP/TCP/ICMP builders and of the Internet
// checksum as they were before the builders moved to fixed-offset
// writers: sequential util::ByteWriter appends, checksums read back from
// the appended bytes in 16-bit pairs and patched in. They exist only so
// net_headers_test can compare the production writers against them byte
// for byte; nothing outside tests/ may use them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/headers.hpp"

namespace quicsand::reference {

/// net::internet_checksum, 16-bit pair edition.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// net::build_udp, ByteWriter edition.
std::vector<std::uint8_t> build_udp(const net::Ipv4Header& ip,
                                    std::uint16_t sport, std::uint16_t dport,
                                    std::span<const std::uint8_t> payload);

/// net::build_tcp, ByteWriter edition.
std::vector<std::uint8_t> build_tcp(const net::Ipv4Header& ip,
                                    const net::TcpInfo& tcp);

/// net::build_icmp, ByteWriter edition.
std::vector<std::uint8_t> build_icmp(const net::Ipv4Header& ip,
                                     const net::IcmpInfo& icmp);

/// net::build_icmp_error, ByteWriter edition.
std::vector<std::uint8_t> build_icmp_error(
    const net::Ipv4Header& ip, std::uint8_t type, std::uint8_t code,
    std::span<const std::uint8_t> original_datagram);

}  // namespace quicsand::reference
