// Legacy Google QUIC (gQUIC) framing.
//
// In the paper's measurement window Google still served gQUIC Q043/Q046/
// Q050 alongside IETF drafts, and those packets appear in backscatter.
// gQUIC predates RFC 9000: Q043 uses a "public header" with a flags
// byte, an optional 8-byte connection ID and an optional version; Q046+
// adopted the IETF long-header shape but kept Google's crypto. We
// implement enough of the wire image to build and dissect the packets a
// telescope sees — full gQUIC crypto (QUIC Crypto) is out of scope and
// the payload is treated as opaque, which is also all Wireshark shows
// for these packets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "quic/connection_id.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand::quic {

/// Q043-style public flags.
struct GquicPublicFlags {
  static constexpr std::uint8_t kVersion = 0x01;
  static constexpr std::uint8_t kReset = 0x02;
  static constexpr std::uint8_t kDiversificationNonce = 0x04;
  static constexpr std::uint8_t kConnectionId = 0x08;
  // Bits 4-5: packet number length (1, 2, 4, 6 bytes).
  static constexpr std::uint8_t kMultipath = 0x40;
};

struct GquicPacketView {
  std::uint32_t version = 0;  ///< 0 when the version flag is absent
  bool has_version = false;
  bool is_reset = false;
  std::span<const std::uint8_t> connection_id;  ///< 8 bytes of the packet
  int packet_number_length = 1;
  std::uint64_t packet_number = 0;
  std::size_t header_size = 0;
  std::size_t payload_size = 0;
};

/// Build a Q043-style data packet. `version` is included (with the
/// version flag) when non-zero — clients set it until negotiation
/// completes, servers omit it.
std::vector<std::uint8_t> build_gquic_packet(
    const ConnectionId& connection_id, std::uint32_t version,
    std::uint64_t packet_number, std::span<const std::uint8_t> payload);

/// Parse a Q043-style public header. Returns nullopt when the bytes are
/// not plausibly gQUIC (e.g. long-header form bit set, truncation). The
/// view's connection ID points into `data`.
std::optional<GquicPacketView> parse_gquic_packet(
    std::span<const std::uint8_t> data);

/// Build a gQUIC server response of roughly `payload_size` opaque bytes
/// (server packets omit the version per the negotiation rules).
std::vector<std::uint8_t> build_gquic_server_response(
    const ConnectionId& connection_id, std::uint64_t packet_number,
    std::size_t payload_size, util::Rng& rng);

// Allocation-free variants appending to a caller-owned writer; the
// vector-returning builders delegate here.
void build_gquic_packet_into(util::ByteWriter& w,
                             const ConnectionId& connection_id,
                             std::uint32_t version,
                             std::uint64_t packet_number,
                             std::span<const std::uint8_t> payload);
void build_gquic_server_response_into(util::ByteWriter& w,
                                      const ConnectionId& connection_id,
                                      std::uint64_t packet_number,
                                      std::size_t payload_size,
                                      util::Rng& rng);

}  // namespace quicsand::quic
