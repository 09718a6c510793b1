#include "quic/header.hpp"

#include <stdexcept>

#include "quic/varint.hpp"

namespace quicsand::quic {

using util::ByteWriter;

const char* packet_type_name(PacketType type) {
  switch (type) {
    case PacketType::kInitial:
      return "initial";
    case PacketType::kZeroRtt:
      return "0rtt";
    case PacketType::kHandshake:
      return "handshake";
    case PacketType::kRetry:
      return "retry";
  }
  return "?";
}

const char* parse_error_name(ParseError error) {
  switch (error) {
    case ParseError::kTruncated:
      return "truncated";
    case ParseError::kNotLongHeader:
      return "not-long-header";
    case ParseError::kFixedBitClear:
      return "fixed-bit-clear";
    case ParseError::kBadConnectionIdLength:
      return "bad-cid-length";
    case ParseError::kBadLength:
      return "bad-length";
  }
  return "?";
}

EncodedHeader encode_long_header(const LongHeader& hdr) {
  ByteWriter w(64 + hdr.token.size());
  const HeaderOffsets offsets = encode_long_header_into(w, hdr);
  EncodedHeader out;
  out.length_offset = offsets.length_offset;
  out.pn_offset = offsets.pn_offset;
  out.bytes = w.take();
  return out;
}

HeaderOffsets encode_long_header_into(ByteWriter& w, const LongHeader& hdr) {
  if (hdr.type == PacketType::kRetry) {
    throw std::invalid_argument("encode_long_header: use build_retry_packet");
  }
  if (hdr.packet_number_length < 1 || hdr.packet_number_length > 4) {
    throw std::invalid_argument("encode_long_header: bad pn length");
  }
  const std::uint8_t first =
      static_cast<std::uint8_t>(0xc0 |
                                (static_cast<std::uint8_t>(hdr.type) << 4) |
                                (hdr.packet_number_length - 1));
  w.write_u8(first);
  w.write_u32(hdr.version);
  w.write_u8(static_cast<std::uint8_t>(hdr.dcid.size()));
  w.write_bytes(hdr.dcid.bytes());
  w.write_u8(static_cast<std::uint8_t>(hdr.scid.size()));
  w.write_bytes(hdr.scid.bytes());
  if (hdr.type == PacketType::kInitial) {
    write_varint(w, hdr.token.size());
    w.write_bytes(hdr.token);
  }
  HeaderOffsets out;
  out.length_offset = w.size();
  write_varint_with_size(w, 0, 2);  // placeholder, patched by the sealer
  out.pn_offset = w.size();
  // Truncated packet number, big-endian.
  for (int i = hdr.packet_number_length - 1; i >= 0; --i) {
    w.write_u8(static_cast<std::uint8_t>(hdr.packet_number >> (8 * i)));
  }
  return out;
}

std::size_t encoded_long_header_size(const LongHeader& hdr) {
  // first byte + version + dcid len/bytes + scid len/bytes
  std::size_t size = 1 + 4 + 1 + hdr.dcid.size() + 1 + hdr.scid.size();
  if (hdr.type == PacketType::kInitial) {
    size += varint_size(hdr.token.size()) + hdr.token.size();
  }
  size += 2;  // fixed 2-byte Length varint
  size += static_cast<std::size_t>(hdr.packet_number_length);
  return size;
}

namespace {

/// parse_long_header's reader: fills `view` from `data[offset]` and
/// returns the error, or nullopt when the packet parsed.
std::optional<ParseError> read_long_header(std::span<const std::uint8_t> data,
                                           std::size_t offset,
                                           LongHeaderView& view) {
  if (offset >= data.size()) return ParseError::kTruncated;
  const auto p = data.subspan(offset);
  const std::uint8_t first = p[0];
  if (!is_long_header_byte(first)) return ParseError::kNotLongHeader;
  if (p.size() < 5) return ParseError::kTruncated;

  view.packet_start = offset;
  view.version = util::load_be32(p, 1);
  // Version Negotiation: version == 0, fixed bit may be anything.
  if (view.version != 0 && !has_fixed_bit(first)) {
    return ParseError::kFixedBitClear;
  }

  // DCID and SCID, each a length byte then up to 20 bytes. `pos` is the
  // offset in `p` of the next unread byte.
  std::size_t pos = 5;
  for (auto* cid : {&view.dcid, &view.scid}) {
    if (pos >= p.size()) return ParseError::kTruncated;
    const std::size_t cid_len = p[pos];
    if (cid_len > ConnectionId::kMaxSize) {
      return ParseError::kBadConnectionIdLength;
    }
    if (p.size() - pos - 1 < cid_len) return ParseError::kTruncated;
    *cid = p.subspan(pos + 1, cid_len);
    pos += 1 + cid_len;
  }

  if (view.is_version_negotiation()) {
    const std::size_t list_bytes = p.size() - pos;
    if (list_bytes % 4 != 0 || list_bytes == 0) return ParseError::kBadLength;
    view.supported_versions = VersionListView(p.subspan(pos));
    view.packet_end = data.size();
    return std::nullopt;
  }

  view.type = static_cast<PacketType>((first >> 4) & 0x03);
  if (view.type == PacketType::kRetry) {
    // Token is everything up to the 16-byte integrity tag.
    if (p.size() - pos < 16) return ParseError::kTruncated;
    view.retry_token = p.subspan(pos, p.size() - pos - 16);
    view.token_length = view.retry_token.size();
    view.packet_end = data.size();
    return std::nullopt;
  }

  if (view.type == PacketType::kInitial) {
    std::uint64_t token_len = 0;
    const std::size_t varint_len = decode_varint(p.subspan(pos), token_len);
    if (varint_len == 0) return ParseError::kTruncated;
    pos += varint_len;
    if (token_len > p.size() - pos) return ParseError::kTruncated;
    view.token_length = static_cast<std::size_t>(token_len);
    view.token = p.subspan(pos, view.token_length);
    pos += view.token_length;
  }

  const std::size_t varint_len = decode_varint(p.subspan(pos), view.length);
  if (varint_len == 0) return ParseError::kTruncated;
  pos += varint_len;
  view.pn_offset = offset + pos;
  // Length counts PN + payload; a protected packet needs at least a
  // 1-byte PN plus a 16-byte AEAD tag, and a PN sample of 16 bytes
  // starting 4 bytes in (RFC 9001 §5.4.2).
  if (view.length < 20 || view.length > p.size() - pos) {
    return ParseError::kBadLength;
  }
  view.packet_end = view.pn_offset + static_cast<std::size_t>(view.length);
  return std::nullopt;
}

}  // namespace

std::optional<LongHeaderView> parse_long_header(
    std::span<const std::uint8_t> data, std::size_t offset,
    ParseError* error) {
  // The one return names `out`, so the view is built in the caller's
  // slot rather than on this frame and copied out.
  std::optional<LongHeaderView> out(std::in_place);
  if (const auto failure = read_long_header(data, offset, *out)) {
    if (error != nullptr) *error = *failure;
    out.reset();
  }
  return out;
}

}  // namespace quicsand::quic
