// QUIC variable-length integers (RFC 9000 §16).
//
// The two most significant bits of the first byte select a 1, 2, 4 or
// 8 byte encoding holding 6, 14, 30 or 62 usable bits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.hpp"

namespace quicsand::quic {

constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

/// Number of bytes the minimal encoding of `value` occupies (1/2/4/8).
/// Throws std::invalid_argument for values above 2^62-1.
std::size_t varint_size(std::uint64_t value);

/// Append the minimal encoding of `value`.
void write_varint(util::ByteWriter& w, std::uint64_t value);

/// Append `value` using exactly `size` bytes (size must be one of 1/2/4/8
/// and large enough). QUIC allows non-minimal encodings; the packet
/// builders use a fixed 2-byte length field so it can be patched later.
void write_varint_with_size(util::ByteWriter& w, std::uint64_t value,
                            std::size_t size);

/// Decode the varint at the front of `data` into `value`. Returns the
/// bytes it occupies (1, 2, 4 or 8), or 0 when `data` is too short.
inline std::size_t decode_varint(std::span<const std::uint8_t> data,
                                 std::uint64_t& value) {
  if (data.empty()) return 0;
  const std::size_t size = std::size_t{1} << (data[0] >> 6);
  if (data.size() < size) return 0;
  value = data[0] & 0x3f;
  for (std::size_t i = 1; i < size; ++i) value = (value << 8) | data[i];
  return size;
}

/// Decode the next varint; throws util::BufferUnderflow when truncated.
std::uint64_t read_varint(util::ByteReader& r);

}  // namespace quicsand::quic
