// Reference copies of the IPv4 decoder, the QUIC long-header parser and
// the gQUIC public-header parser as they were before each moved to
// fixed-offset loads: sequential util::ByteReader reads, with truncation
// reported by exception. A reference classifier runs its own packet walk
// over them. They exist only so parser_oracle_test can compare the
// production parsers and Classifier::classify against them field by
// field; nothing outside tests/ may use them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/classifier.hpp"
#include "core/record.hpp"
#include "net/headers.hpp"
#include "quic/gquic.hpp"
#include "quic/header.hpp"
#include "util/time.hpp"

namespace quicsand::reference {

/// net::DecodedPacket's fields, each read out and stored.
struct DecodedPacket {
  net::Ipv4Header ip;
  std::variant<net::UdpInfo, net::TcpInfo, net::IcmpInfo> l4;
};

/// net::decode_ipv4, ByteReader edition.
std::optional<DecodedPacket> decode_ipv4(std::span<const std::uint8_t> data);

/// quic::LongHeaderView with the connection IDs and the Version
/// Negotiation list copied out.
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

/// core::Classifier rebuilt on the parsers above: its own walk over the
/// coalesced packets of a UDP/443 payload, collected into a list that is
/// folded into the record once the walk accepts the payload, and its own
/// SCID hash. With the production classifier it shares only the version
/// family and first-byte predicates (quic/version.hpp, quic/header.hpp).
class Classifier {
 public:
  explicit Classifier(core::ClassifierConfig config)
      : config_(std::move(config)) {}

  std::optional<core::PacketRecord> classify(
      util::Timestamp timestamp, std::span<const std::uint8_t> data);

  [[nodiscard]] const core::ClassifierStats& stats() const { return stats_; }

 private:
  core::ClassifierConfig config_;
  core::ClassifierStats stats_;
};

}  // namespace quicsand::reference
