// QUIC packet header codec (RFC 9000 §17).
//
// Two layers are provided:
//  * LongHeader / encode_long_header(): the plaintext header a sender
//    builds before packet protection is applied.
//  * LongHeaderView / parse_long_header(): the fields an on-path observer
//    (our telescope dissector) can read from a *protected* packet without
//    keys — everything except the packet number and the low first-byte
//    bits, which are covered by header protection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quic/connection_id.hpp"
#include "quic/version.hpp"
#include "util/bytes.hpp"

namespace quicsand::quic {

enum class PacketType : std::uint8_t {
  kInitial = 0,
  kZeroRtt = 1,
  kHandshake = 2,
  kRetry = 3,
};

const char* packet_type_name(PacketType type);

/// Plaintext long header, pre-protection.
struct LongHeader {
  PacketType type = PacketType::kInitial;
  std::uint32_t version = static_cast<std::uint32_t>(Version::kV1);
  ConnectionId dcid;
  ConnectionId scid;
  std::vector<std::uint8_t> token;  ///< Initial packets only
  std::uint64_t packet_number = 0;
  int packet_number_length = 4;  ///< 1..4 bytes on the wire
};

/// Encoded long header plus the offsets the packet-protection layer needs.
struct EncodedHeader {
  std::vector<std::uint8_t> bytes;
  std::size_t pn_offset = 0;      ///< offset of the packet number field
  std::size_t length_offset = 0;  ///< offset of the 2-byte Length varint
};

/// Serialize `hdr` with a placeholder Length field (patched during
/// sealing). Length is always encoded as a 2-byte varint, so sealed
/// payloads are limited to ~16KB — more than any UDP datagram we build.
/// Not usable for Retry (which has no Length/PN); see retry.hpp.
EncodedHeader encode_long_header(const LongHeader& hdr);

/// Field offsets produced by encode_long_header_into; absolute positions
/// in the destination writer (valid even when the writer was non-empty).
struct HeaderOffsets {
  std::size_t pn_offset = 0;
  std::size_t length_offset = 0;
};

/// Append the same encoding to a caller-owned writer without allocating.
/// encode_long_header() delegates here.
HeaderOffsets encode_long_header_into(util::ByteWriter& w,
                                      const LongHeader& hdr);

/// Exact size encode_long_header_into will append for `hdr`, computed
/// without serializing (for padding calculations on the hot path).
std::size_t encoded_long_header_size(const LongHeader& hdr);

/// The version list of a Version Negotiation packet, read in place:
/// 32-bit big-endian entries over the bytes after the SCID.
class VersionListView {
 public:
  VersionListView() = default;
  explicit VersionListView(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size() / 4; }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return util::load_be32(bytes_, 4 * i);
  }

 private:
  std::span<const std::uint8_t> bytes_;
};

/// Header fields readable without removing header protection.
struct LongHeaderView {
  /// User-provided, so that value-initialization (parse_long_header's
  /// in-place result) runs only the member initializers below, rather
  /// than first zero-filling the whole view with a string store.
  LongHeaderView() {}

  PacketType type = PacketType::kInitial;
  std::uint32_t version = 0;
  std::span<const std::uint8_t> dcid;  ///< 0..20 bytes
  std::span<const std::uint8_t> scid;  ///< 0..20 bytes
  std::size_t token_length = 0;   ///< Initial only
  std::uint64_t length = 0;       ///< Length field: PN + payload bytes
  std::size_t packet_start = 0;   ///< offset of this packet's first byte
  std::size_t pn_offset = 0;      ///< offset of the protected PN field
  std::size_t packet_end = 0;     ///< one past this packet (coalescing)
  std::span<const std::uint8_t> token;        ///< Initial only
  std::span<const std::uint8_t> retry_token;  ///< Retry only (sans tag)
  VersionListView supported_versions;         ///< VN only

  [[nodiscard]] bool is_version_negotiation() const { return version == 0; }
};

enum class ParseError {
  kTruncated,
  kNotLongHeader,
  kFixedBitClear,
  kBadConnectionIdLength,
  kBadLength,
};

const char* parse_error_name(ParseError error);

/// Parse one protected long-header packet starting at `data[offset]`.
/// Handles Initial / 0-RTT / Handshake / Retry and Version Negotiation.
/// On success the view's spans, connection IDs included, point into
/// `data`; ConnectionId(view.dcid) makes an owning copy. Reads at fixed
/// offsets after explicit length checks and writes each field once, into
/// the returned view: never throws, never allocates, copies no bytes.
std::optional<LongHeaderView> parse_long_header(
    std::span<const std::uint8_t> data, std::size_t offset,
    ParseError* error = nullptr);

/// True if the first byte has the long-header form bit set.
constexpr bool is_long_header_byte(std::uint8_t first) {
  return (first & 0x80) != 0;
}

/// True if the QUIC fixed bit is set (both header forms).
constexpr bool has_fixed_bit(std::uint8_t first) {
  return (first & 0x40) != 0;
}

}  // namespace quicsand::quic
