#include "quic/varint.hpp"

#include <stdexcept>

namespace quicsand::quic {

std::size_t varint_size(std::uint64_t value) {
  if (value < (1ULL << 6)) return 1;
  if (value < (1ULL << 14)) return 2;
  if (value < (1ULL << 30)) return 4;
  if (value <= kVarintMax) return 8;
  throw std::invalid_argument("varint_size: value exceeds 2^62-1");
}

void write_varint(util::ByteWriter& w, std::uint64_t value) {
  write_varint_with_size(w, value, varint_size(value));
}

void write_varint_with_size(util::ByteWriter& w, std::uint64_t value,
                            std::size_t size) {
  if (size < varint_size(value)) {
    throw std::invalid_argument("write_varint_with_size: size too small");
  }
  switch (size) {
    case 1:
      w.write_u8(static_cast<std::uint8_t>(value));
      break;
    case 2:
      w.write_u16(static_cast<std::uint16_t>(value | 0x4000));
      break;
    case 4:
      w.write_u32(static_cast<std::uint32_t>(value | 0x80000000u));
      break;
    case 8:
      w.write_u64(value | 0xc000000000000000ULL);
      break;
    default:
      throw std::invalid_argument("write_varint_with_size: bad size");
  }
}

std::uint64_t read_varint(util::ByteReader& r) {
  std::uint64_t value = 0;
  const std::size_t size = decode_varint(r.rest(), value);
  if (size == 0) throw util::BufferUnderflow{};
  r.skip(size);
  return value;
}

}  // namespace quicsand::quic
