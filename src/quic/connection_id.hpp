// QUIC connection IDs (RFC 9000 §5.1): 0..20 opaque bytes.
//
// The paper counts distinct SCIDs in backscatter to estimate how much
// state the attacked server allocated (Figure 9), so ConnectionId must be
// cheap to hash and compare. It is a fixed inline array plus a length.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "util/bytes.hpp"

namespace quicsand::quic {

/// FNV-1a over a connection ID's bytes; stable across runs. Hashing the
/// bytes where they lie lets a record take a CID's hash straight from
/// the datagram, without building a ConnectionId.
inline std::size_t connection_id_hash(std::span<const std::uint8_t> bytes) {
  std::size_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

class ConnectionId {
 public:
  static constexpr std::size_t kMaxSize = 20;

  ConnectionId() = default;

  explicit ConnectionId(std::span<const std::uint8_t> bytes) {
    if (bytes.size() > kMaxSize) {
      throw std::invalid_argument("ConnectionId: longer than 20 bytes");
    }
    length_ = static_cast<std::uint8_t>(bytes.size());
    // Inlined fixed-size moves: a libc memcpy call costs more than the
    // copy for CIDs this short.
    util::copy_short(data_, bytes);
  }

  [[nodiscard]] std::size_t size() const { return length_; }
  [[nodiscard]] bool empty() const { return length_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_.data(), length_};
  }

  [[nodiscard]] std::string to_hex() const;

  friend bool operator==(const ConnectionId& a, const ConnectionId& b) {
    return a.length_ == b.length_ &&
           std::memcmp(a.data_.data(), b.data_.data(), a.length_) == 0;
  }

  friend auto operator<=>(const ConnectionId& a, const ConnectionId& b) {
    const int c = std::memcmp(a.data_.data(), b.data_.data(),
                              std::min(a.length_, b.length_));
    if (c != 0) return c <=> 0;
    return a.length_ <=> b.length_;
  }

  [[nodiscard]] std::size_t hash() const { return connection_id_hash(bytes()); }

 private:
  std::array<std::uint8_t, kMaxSize> data_{};
  std::uint8_t length_ = 0;
};

}  // namespace quicsand::quic

template <>
struct std::hash<quicsand::quic::ConnectionId> {
  std::size_t operator()(const quicsand::quic::ConnectionId& id) const noexcept {
    return id.hash();
  }
};
