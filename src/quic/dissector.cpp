#include "quic/dissector.hpp"

#include <algorithm>

#include "quic/frames.hpp"
#include "quic/gquic.hpp"
#include "quic/initial_aead.hpp"
#include "quic/tls_messages.hpp"
#include "quic/version.hpp"

namespace quicsand::quic {

namespace {

constexpr std::size_t kMinShortHeaderPacket = 21;  // 1 + min CID + sample

QuicPacketKind kind_of(PacketType type) {
  switch (type) {
    case PacketType::kInitial:
      return QuicPacketKind::kInitial;
    case PacketType::kZeroRtt:
      return QuicPacketKind::kZeroRtt;
    case PacketType::kHandshake:
      return QuicPacketKind::kHandshake;
    case PacketType::kRetry:
      return QuicPacketKind::kRetry;
  }
  return QuicPacketKind::kShort;
}

/// Try to open an Initial packet in both directions and look for a
/// ClientHello, mirroring the paper's §6 validation.
InitialDirection classify_initial(std::span<const std::uint8_t> payload,
                                  const LongHeaderView& view) {
  if (salt_generation(view.version) == SaltGeneration::kNone) {
    return InitialDirection::kUndecryptable;
  }
  // A client Initial is protected with keys derived from its own DCID.
  const ConnectionId dcid(view.dcid);
  const auto client_keys =
      derive_initial_keys(view.version, dcid, Perspective::kClient);
  if (auto opened = open_long_header_packet(client_keys, payload, view)) {
    if (auto frames = parse_frames(opened->payload)) {
      for (const auto& frame : *frames) {
        if (const auto* crypto = std::get_if<CryptoFrame>(&frame)) {
          if (is_client_hello(crypto->data)) {
            return InitialDirection::kClientHello;
          }
        }
      }
    }
    return InitialDirection::kServerResponse;  // decrypts, but no CH
  }
  // A server Initial reply is keyed on the *original* client DCID, which
  // an observer who missed the request cannot know.
  const auto server_keys =
      derive_initial_keys(view.version, dcid, Perspective::kServer);
  if (open_long_header_packet(server_keys, payload, view)) {
    return InitialDirection::kServerResponse;
  }
  return InitialDirection::kUndecryptable;
}

}  // namespace

const char* quic_packet_kind_name(QuicPacketKind kind) {
  switch (kind) {
    case QuicPacketKind::kInitial:
      return "initial";
    case QuicPacketKind::kZeroRtt:
      return "0rtt";
    case QuicPacketKind::kHandshake:
      return "handshake";
    case QuicPacketKind::kRetry:
      return "retry";
    case QuicPacketKind::kVersionNegotiation:
      return "version-negotiation";
    case QuicPacketKind::kShort:
      return "short";
    case QuicPacketKind::kGquic:
      return "gquic";
  }
  return "?";
}

const char* walk_udp_payload(std::span<const std::uint8_t> payload,
                             PacketSink& sink, const DissectOptions& options) {
  if (payload.empty()) return "empty";

  const std::uint8_t first = payload[0];
  if (!is_long_header_byte(first)) {
    // Short header: the only observable structure is the fixed bit and a
    // plausible minimum size (1-RTT packets carry >= 20 bytes of CID +
    // sample material).
    if (has_fixed_bit(first) && payload.size() >= kMinShortHeaderPacket) {
      DissectedPacketView pkt;
      pkt.kind = QuicPacketKind::kShort;
      pkt.size = payload.size();
      sink.on_packet(pkt);
      return nullptr;
    }
    // Legacy gQUIC (Q043-style public header): no fixed bit; the flags
    // byte selects connection id / version / packet number length. This
    // is how Google's Q0xx server responses appear on the wire.
    if (const auto gquic = parse_gquic_packet(payload)) {
      DissectedPacketView pkt;
      pkt.kind = QuicPacketKind::kGquic;
      pkt.version = gquic->version;
      pkt.dcid = gquic->connection_id;
      pkt.size = payload.size();
      sink.on_packet(pkt);
      return nullptr;
    }
    return has_fixed_bit(first) ? "short-header-too-small"
                                : "short-header-without-fixed-bit";
  }

  // Long header form. gQUIC uses the same top bit in some versions;
  // check the version field family first.
  if (payload.size() >= 5) {
    const std::uint32_t version = util::load_be32(payload, 1);
    const VersionFamily family = version_family(version);
    if (family == VersionFamily::kGquic) {
      DissectedPacketView pkt;
      pkt.kind = QuicPacketKind::kGquic;
      pkt.version = version;
      pkt.size = payload.size();
      sink.on_packet(pkt);
      return nullptr;
    }
    if (family == VersionFamily::kUnknown && !is_grease_version(version)) {
      return "unknown-version";
    }
  }

  // Walk coalesced long-header packets.
  std::size_t offset = 0;
  std::size_t walked = 0;
  while (offset < payload.size()) {
    // Trailing zero padding after a coalesced packet is allowed.
    const auto rest = payload.subspan(offset);
    if (walked > 0 &&
        std::all_of(rest.begin(), rest.end(),
                    [](std::uint8_t b) { return b == 0; })) {
      break;
    }
    if (!is_long_header_byte(payload[offset])) {
      // A short-header packet may terminate a coalesced datagram.
      if (walked > 0 && has_fixed_bit(payload[offset])) {
        DissectedPacketView pkt;
        pkt.kind = QuicPacketKind::kShort;
        pkt.size = rest.size();
        sink.on_packet(pkt);
        ++walked;
        break;
      }
      return "bad-coalesced-packet";
    }
    ParseError error{};
    const auto view = parse_long_header(payload, offset, &error);
    if (!view) return parse_error_name(error);
    DissectedPacketView pkt;
    pkt.kind = view->is_version_negotiation()
                   ? QuicPacketKind::kVersionNegotiation
                   : kind_of(view->type);
    pkt.version = view->version;
    pkt.dcid = view->dcid;
    pkt.scid = view->scid;
    pkt.token_length = view->token_length;
    pkt.size = view->packet_end - offset;
    if (pkt.kind == QuicPacketKind::kInitial && options.decrypt_initials) {
      pkt.direction = classify_initial(payload, *view);
    }
    sink.on_packet(pkt);
    ++walked;
    offset = view->packet_end;
  }
  return walked > 0 ? nullptr : "no-packets";
}

DissectResult dissect_udp_payload(std::span<const std::uint8_t> payload,
                                  const DissectOptions& options) {
  struct Collector final : PacketSink {
    explicit Collector(std::vector<DissectedPacket>& out) : packets(out) {}
    void on_packet(const DissectedPacketView& packet) override {
      packets.emplace_back(packet);
    }
    std::vector<DissectedPacket>& packets;
  };
  DissectResult result;
  Collector collector(result.packets);
  if (const char* reason = walk_udp_payload(payload, collector, options)) {
    result.packets.clear();
    result.reject_reason = reason;
  } else {
    result.is_quic = true;
  }
  return result;
}

}  // namespace quicsand::quic
