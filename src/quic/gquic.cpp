#include "quic/gquic.hpp"

#include <stdexcept>

#include "util/bytes.hpp"

namespace quicsand::quic {

namespace {

int pn_length_from_flags(std::uint8_t flags) {
  switch ((flags >> 4) & 0x03) {
    case 0:
      return 1;
    case 1:
      return 2;
    case 2:
      return 4;
    default:
      return 6;
  }
}

std::uint8_t pn_flags_from_length(int length) {
  switch (length) {
    case 1:
      return 0 << 4;
    case 2:
      return 1 << 4;
    case 4:
      return 2 << 4;
    case 6:
      return 3 << 4;
    default:
      throw std::invalid_argument("gquic: bad packet number length");
  }
}

}  // namespace

std::vector<std::uint8_t> build_gquic_packet(
    const ConnectionId& connection_id, std::uint32_t version,
    std::uint64_t packet_number, std::span<const std::uint8_t> payload) {
  util::ByteWriter w(16 + payload.size());
  build_gquic_packet_into(w, connection_id, version, packet_number, payload);
  return w.take();
}

void build_gquic_packet_into(
    util::ByteWriter& w, const ConnectionId& connection_id,
    std::uint32_t version, std::uint64_t packet_number,
    std::span<const std::uint8_t> payload) {
  if (!connection_id.empty() && connection_id.size() != 8) {
    throw std::invalid_argument("gquic: connection id must be 8 bytes");
  }
  // Pick the smallest packet number encoding.
  int pn_length = 1;
  if (packet_number > 0xffffffffffffULL) {
    throw std::invalid_argument("gquic: packet number too large");
  }
  if (packet_number > 0xffffffff) {
    pn_length = 6;
  } else if (packet_number > 0xffff) {
    pn_length = 4;
  } else if (packet_number > 0xff) {
    pn_length = 2;
  }

  std::uint8_t flags = pn_flags_from_length(pn_length);
  if (!connection_id.empty()) flags |= GquicPublicFlags::kConnectionId;
  if (version != 0) flags |= GquicPublicFlags::kVersion;
  w.write_u8(flags);
  if (!connection_id.empty()) w.write_bytes(connection_id.bytes());
  if (version != 0) w.write_u32(version);
  for (int i = pn_length - 1; i >= 0; --i) {
    w.write_u8(static_cast<std::uint8_t>(packet_number >> (8 * i)));
  }
  w.write_bytes(payload);
}

std::optional<GquicPacketView> parse_gquic_packet(
    std::span<const std::uint8_t> data) {
  if (data.empty()) return std::nullopt;
  const std::uint8_t flags = data[0];
  // The long-header form bit is never set in a Q043 public header; the
  // multipath bit was never deployed.
  if (flags & 0x80) return std::nullopt;
  if (flags & GquicPublicFlags::kMultipath) return std::nullopt;

  // Heuristic tightening: standalone server/reset packets without a
  // connection id are indistinguishable from arbitrary bytes, so the
  // dissector only accepts public headers that carry one (the
  // overwhelmingly common configuration, and what Wireshark keys on).
  if (!(flags & GquicPublicFlags::kConnectionId)) return std::nullopt;

  // Flags byte, 8-byte connection id, then the optional version. `pos`
  // is the offset of the next unread byte.
  std::size_t pos = 1 + 8;
  if (data.size() < pos) return std::nullopt;
  GquicPacketView view;
  view.is_reset = (flags & GquicPublicFlags::kReset) != 0;
  view.connection_id = data.subspan(1, 8);
  if (flags & GquicPublicFlags::kVersion) {
    if (data.size() - pos < 4) return std::nullopt;
    view.has_version = true;
    view.version = util::load_be32(data, pos);
    pos += 4;
    // gQUIC versions are ASCII 'Q' + digits.
    if ((view.version >> 24) != 'Q') return std::nullopt;
  }
  // A public reset's rest is a tagged message (opaque); a data packet
  // carries a packet number, then an authentication hash + frames.
  if (!view.is_reset) {
    view.packet_number_length = pn_length_from_flags(flags);
    const auto pn_length = static_cast<std::size_t>(view.packet_number_length);
    if (data.size() - pos < pn_length) return std::nullopt;
    for (std::size_t i = 0; i < pn_length; ++i) {
      view.packet_number = (view.packet_number << 8) | data[pos + i];
    }
    pos += pn_length;
  }
  view.header_size = pos;
  view.payload_size = data.size() - pos;
  if (!view.is_reset && view.payload_size < 12) return std::nullopt;
  return view;
}

std::vector<std::uint8_t> build_gquic_server_response(
    const ConnectionId& connection_id, std::uint64_t packet_number,
    std::size_t payload_size, util::Rng& rng) {
  util::ByteWriter w;
  build_gquic_server_response_into(w, connection_id, packet_number,
                                   payload_size, rng);
  return w.take();
}

void build_gquic_server_response_into(util::ByteWriter& w,
                                      const ConnectionId& connection_id,
                                      std::uint64_t packet_number,
                                      std::size_t payload_size,
                                      util::Rng& rng) {
  // Server packets omit the version; payload (message auth hash + frame
  // data, encrypted at Q050) is opaque on the wire. The random payload is
  // drawn with the same fill sequence as the vector-returning builder.
  const std::size_t n = std::max<std::size_t>(payload_size, 12);
  build_gquic_packet_into(w, connection_id, 0, packet_number, {});
  rng.fill(w.append_uninitialized(n));
}

}  // namespace quicsand::quic
