// Reference copies of the IPv4 decoder, the QUIC long-header parser and
// the gQUIC public-header parser as they were before each moved to
// fixed-offset loads: sequential util::ByteReader reads, with truncation
// reported by exception. They
// exist only so parser_oracle_test can compare the production parsers
// against them field by field; nothing outside tests/ may use them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "quic/gquic.hpp"
#include "quic/header.hpp"

namespace quicsand::reference {

/// net::decode_ipv4, ByteReader edition.
std::optional<net::DecodedPacket> decode_ipv4(
    std::span<const std::uint8_t> data);

/// quic::LongHeaderView with the Version Negotiation list copied out.
struct LongHeaderView {
  quic::PacketType type = quic::PacketType::kInitial;
  std::uint32_t version = 0;
  quic::ConnectionId dcid;
  quic::ConnectionId scid;
  std::size_t token_length = 0;
  std::uint64_t length = 0;
  std::size_t packet_start = 0;
  std::size_t pn_offset = 0;
  std::size_t packet_end = 0;
  std::span<const std::uint8_t> token;
  std::span<const std::uint8_t> retry_token;
  std::vector<std::uint32_t> supported_versions;
};

/// quic::parse_long_header, ByteReader edition.
std::optional<LongHeaderView> parse_long_header(
    std::span<const std::uint8_t> data, std::size_t offset,
    quic::ParseError* error = nullptr);

/// quic::parse_gquic_packet, ByteReader edition.
std::optional<quic::GquicPacketView> parse_gquic_packet(
    std::span<const std::uint8_t> data);

}  // namespace quicsand::reference
