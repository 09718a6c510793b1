// Byte-order aware readers/writers and hex helpers.
//
// All wire formats in this project (IPv4, UDP, TCP, ICMP, QUIC, TLS, pcap)
// are encoded and decoded through these two small classes so that bounds
// checking lives in exactly one place. The per-datagram header parsers
// (IPv4, QUIC long header) are the exception: they check a header's
// length once, explicitly, then read it with the fixed-offset loads
// below, so the classify path never throws. The IPv4/UDP/TCP/ICMP
// writers likewise size their datagram once and fill it with the
// fixed-offset stores.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace quicsand::util {

/// Error thrown when a reader runs past the end of its buffer.
class BufferUnderflow : public std::runtime_error {
 public:
  BufferUnderflow() : std::runtime_error("buffer underflow") {}
};

/// A 16-bit integer field decoded from network (big-endian) byte order.
///
/// The reader has already assembled the bytes most-significant-first;
/// this wrapper carries no arithmetic or comparisons, so a parser cannot
/// consume a wire field without explicitly acknowledging the byte order
/// via to_host().
class NetU16 {
 public:
  constexpr NetU16() = default;
  constexpr explicit NetU16(std::uint16_t host_value) : host_(host_value) {}
  [[nodiscard]] constexpr std::uint16_t to_host() const { return host_; }

 private:
  std::uint16_t host_ = 0;
};

/// 32-bit sibling of NetU16.
class NetU32 {
 public:
  constexpr NetU32() = default;
  constexpr explicit NetU32(std::uint32_t host_value) : host_(host_value) {}
  [[nodiscard]] constexpr std::uint32_t to_host() const { return host_; }

 private:
  std::uint32_t host_ = 0;
};

/// Big-endian loads at a fixed offset. The caller has already checked
/// that `at + 2` (`at + 4` for load_be32) is at most `data.size()`.
constexpr std::uint16_t load_be16(std::span<const std::uint8_t> data,
                                  std::size_t at) {
  return static_cast<std::uint16_t>((data[at] << 8) | data[at + 1]);
}

constexpr std::uint32_t load_be32(std::span<const std::uint8_t> data,
                                  std::size_t at) {
  return (std::uint32_t{data[at]} << 24) | (std::uint32_t{data[at + 1]} << 16) |
         (std::uint32_t{data[at + 2]} << 8) | std::uint32_t{data[at + 3]};
}

/// 32-bit load at a fixed offset in the machine's byte order, for sums
/// that do not depend on it, such as the Internet checksum's (RFC 1071
/// §2(B)). Same precondition as load_be32.
inline std::uint32_t load_native32(std::span<const std::uint8_t> data,
                                   std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, data.data() + at, sizeof v);
  return v;
}

/// Big-endian stores at a fixed offset, the mirror of load_be16/32. The
/// caller has already checked that `at + 2` (`at + 4` for store_be32) is
/// at most `data.size()`.
constexpr void store_be16(std::span<std::uint8_t> data, std::size_t at,
                          std::uint16_t v) {
  data[at] = static_cast<std::uint8_t>(v >> 8);
  data[at + 1] = static_cast<std::uint8_t>(v);
}

constexpr void store_be32(std::span<std::uint8_t> data, std::size_t at,
                          std::uint32_t v) {
  data[at] = static_cast<std::uint8_t>(v >> 24);
  data[at + 1] = static_cast<std::uint8_t>(v >> 16);
  data[at + 2] = static_cast<std::uint8_t>(v >> 8);
  data[at + 3] = static_cast<std::uint8_t>(v);
}

/// Copy `src`, at most 32 bytes, to the front of `dst` (which must be at
/// least as long) in fixed-size, possibly overlapping pieces that the
/// compiler inlines. For short fields copied once per packet, such as
/// connection IDs, a variable-length libc memcpy call costs more than
/// the copy itself.
inline void copy_short(std::span<std::uint8_t> dst,
                       std::span<const std::uint8_t> src) {
  const std::size_t n = src.size();
  if (n > 32 || n > dst.size()) throw std::out_of_range("copy_short");
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  if (n >= 16) {
    std::memcpy(d, s, 16);
    std::memcpy(d + n - 16, s + n - 16, 16);
  } else if (n >= 8) {
    std::memcpy(d, s, 8);
    std::memcpy(d + n - 8, s + n - 8, 8);
  } else if (n >= 4) {
    std::memcpy(d, s, 4);
    std::memcpy(d + n - 4, s + n - 4, 4);
  } else if (n > 0) {
    d[0] = s[0];
    d[n / 2] = s[n / 2];
    d[n - 1] = s[n - 1];
  }
}

/// Sequential big-endian reader over a non-owning byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }

  /// Peek one byte without consuming it.
  [[nodiscard]] std::uint8_t peek_u8() const {
    require(1);
    return data_[pos_];
  }

  std::uint8_t read_u8() {
    require(1);
    return data_[pos_++];
  }

  NetU16 read_u16() { return NetU16{static_cast<std::uint16_t>(read_be(2))}; }
  std::uint32_t read_u24() { return static_cast<std::uint32_t>(read_be(3)); }
  NetU32 read_u32() { return NetU32{static_cast<std::uint32_t>(read_be(4))}; }
  std::uint64_t read_u64() { return read_be(8); }

  /// Consume `n` bytes and return a view into the underlying buffer.
  std::span<const std::uint8_t> read_bytes(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Consume `n` bytes into an owned vector.
  std::vector<std::uint8_t> read_vector(std::size_t n) {
    auto s = read_bytes(n);
    return {s.begin(), s.end()};
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  /// View of everything not yet consumed.
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) throw BufferUnderflow{};
  }

  std::uint64_t read_be(std::size_t n) {
    require(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Append-only big-endian writer backed by a growable vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u16(std::uint16_t v) { write_be(v, 2); }
  void write_u24(std::uint32_t v) { write_be(v, 3); }
  void write_u32(std::uint32_t v) { write_be(v, 4); }
  void write_u64(std::uint64_t v) { write_be(v, 8); }

  void write_bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void write_repeated(std::uint8_t byte, std::size_t count) {
    buf_.insert(buf_.end(), count, byte);
  }

  /// Overwrite `n` big-endian bytes at an absolute offset (for length
  /// fields that are only known after the body has been written).
  void patch_be(std::size_t offset, std::uint64_t v, std::size_t n) {
    if (offset + n > buf_.size()) throw std::out_of_range("patch_be");
    for (std::size_t i = 0; i < n; ++i) {
      buf_[offset + i] =
          static_cast<std::uint8_t>(v >> (8 * (n - 1 - i)));
    }
  }

  /// Discard contents but keep the allocated capacity, so a writer can be
  /// reused across packets without heap traffic once it has grown to the
  /// working-set size.
  void clear() { buf_.clear(); }

  /// Replace the backing store with a recycled vector (cleared, capacity
  /// kept). Pairs with take() to move buffers through a free list.
  void reset(std::vector<std::uint8_t>&& recycled) {
    buf_ = std::move(recycled);
    buf_.clear();
  }

  /// Grow by `n` zero-filled bytes (std::vector::resize initialises them)
  /// and return a mutable view of the new region, for bulk fills like
  /// rng.fill.
  std::span<std::uint8_t> append_uninitialized(std::size_t n) {
    buf_.resize(buf_.size() + n);
    return std::span<std::uint8_t>(buf_).last(n);
  }

  /// Drop bytes from the end (undo a speculative append).
  void truncate(std::size_t new_size) {
    if (new_size > buf_.size()) throw std::out_of_range("truncate");
    buf_.resize(new_size);
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return buf_; }
  [[nodiscard]] std::span<std::uint8_t> mutable_view() { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::uint8_t>& vec() const { return buf_; }

 private:
  void write_be(std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * (n - 1 - i))));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Lower-case hex encoding of a byte span.
std::string to_hex(std::span<const std::uint8_t> data);

/// Parse a hex string (no separators). Returns nullopt on odd length or
/// non-hex characters.
std::optional<std::vector<std::uint8_t>> from_hex(std::string_view hex);

/// Strict parse used by tests: throws std::invalid_argument on bad input.
std::vector<std::uint8_t> from_hex_strict(std::string_view hex);

}  // namespace quicsand::util
