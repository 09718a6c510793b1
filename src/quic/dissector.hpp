// Heuristic QUIC dissector — our stand-in for the Wireshark payload
// dissectors the paper uses to validate port-based classification (§4.1).
//
// Given a UDP payload, it decides whether the bytes are plausibly QUIC,
// and if so enumerates the (possibly coalesced) packets with the fields
// an on-path observer can read: type, version, DCID, SCID, token and
// payload lengths. Optionally it attempts to remove Initial protection
// ("deep" mode) to classify the direction of an Initial — this is how the
// analysis implements the paper's §6 check that backscatter Initials do
// not contain an unencrypted TLS Client Hello.
//
// One walk, walk_udp_payload(), does the work and hands each packet to a
// caller-supplied sink as a DissectedPacketView, whose connection IDs
// are spans into the payload. The classifier folds it straight into a
// record without copying a CID or touching the heap;
// dissect_udp_payload() collects owning DissectedPackets into a
// DissectResult for callers that keep the packet list past the payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quic/connection_id.hpp"
#include "quic/header.hpp"

namespace quicsand::quic {

enum class QuicPacketKind : std::uint8_t {
  kInitial,
  kZeroRtt,
  kHandshake,
  kRetry,
  kVersionNegotiation,
  kShort,   ///< 1-RTT packet; DCID length unknown to an observer
  kGquic,   ///< legacy gQUIC framing (not further dissected)
};

const char* quic_packet_kind_name(QuicPacketKind kind);

/// Result of deep (decrypting) inspection of an Initial packet.
enum class InitialDirection : std::uint8_t {
  kNotAttempted,
  kClientHello,    ///< decrypted with client keys, carries a ClientHello
  kServerResponse, ///< decrypts with server keys (SCID-routed reply)
  kUndecryptable,  ///< neither key works: response to an unseen Initial
};

/// One packet as the walk hands it to a sink: the connection IDs point
/// into the walked payload and are valid during on_packet() only.
struct DissectedPacketView {
  QuicPacketKind kind = QuicPacketKind::kShort;
  std::uint32_t version = 0;
  std::span<const std::uint8_t> dcid;
  std::span<const std::uint8_t> scid;  ///< long headers only
  std::size_t token_length = 0;
  std::size_t size = 0;  ///< bytes of this QUIC packet on the wire
  InitialDirection direction = InitialDirection::kNotAttempted;
};

/// A walked packet with its own copies of the connection IDs.
struct DissectedPacket {
  QuicPacketKind kind = QuicPacketKind::kShort;
  std::uint32_t version = 0;
  ConnectionId dcid;
  ConnectionId scid;  ///< long headers only
  std::size_t token_length = 0;
  std::size_t size = 0;  ///< bytes of this QUIC packet on the wire
  InitialDirection direction = InitialDirection::kNotAttempted;

  DissectedPacket() = default;
  explicit DissectedPacket(const DissectedPacketView& view)
      : kind(view.kind),
        version(view.version),
        dcid(view.dcid),
        scid(view.scid),
        token_length(view.token_length),
        size(view.size),
        direction(view.direction) {}
};

struct DissectResult {
  bool is_quic = false;
  std::vector<DissectedPacket> packets;
  std::string reject_reason;  ///< filled when !is_quic
};

struct DissectOptions {
  /// Attempt Initial decryption to classify packet direction. Costs two
  /// key derivations + AEAD per Initial; off for bulk classification.
  bool decrypt_initials = false;
};

/// Receives the packets of one datagram from walk_udp_payload(), in wire
/// order.
class PacketSink {
 public:
  virtual void on_packet(const DissectedPacketView& packet) = 0;

 protected:
  ~PacketSink() = default;
};

/// Walk the (possibly coalesced) packets of one UDP payload, handing each
/// to `sink`. Returns nullptr when the payload is QUIC, else the reason it
/// is not (a static string). A payload can be rejected after the sink has
/// seen some of its packets (a later coalesced packet is malformed); the
/// caller then discards them. Allocates nothing unless
/// `options.decrypt_initials` is set.
const char* walk_udp_payload(std::span<const std::uint8_t> payload,
                             PacketSink& sink,
                             const DissectOptions& options = {});

/// The walk, collected: every packet of an accepted payload, or none and
/// the reject reason. The only place the walk's CIDs are copied.
DissectResult dissect_udp_payload(std::span<const std::uint8_t> payload,
                                  const DissectOptions& options = {});

}  // namespace quicsand::quic
