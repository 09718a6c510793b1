// A captured packet: a timestamp plus the raw IPv4 datagram bytes, as a
// non-owning view (PacketView) or an owning copy (RawPacket).
//
// The pair follows std::string_view / std::string: readers hand out
// views into their own buffers, RawPacket(view) makes the one owning
// copy a caller that keeps a packet needs, and a RawPacket converts to
// a view wherever one is taken.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace quicsand::net {

/// Non-owning view of one packet; valid as long as the bytes it points
/// into (a RecordBatch arena, a capture reader's buffer until its next
/// read, a RawPacket).
struct PacketView {
  util::Timestamp timestamp{};
  std::span<const std::uint8_t> data;
};

struct RawPacket {
  util::Timestamp timestamp{};
  std::vector<std::uint8_t> data;

  RawPacket() = default;
  RawPacket(util::Timestamp ts, std::vector<std::uint8_t> bytes)
      : timestamp(ts), data(std::move(bytes)) {}

  /// An owning copy of the packet `view` points at.
  explicit RawPacket(PacketView view)
      : timestamp(view.timestamp), data(view.data.begin(), view.data.end()) {}

  /// Replace this packet with a copy of `view`, reusing the storage;
  /// `view` must not point into this packet.
  RawPacket& operator=(PacketView view) {
    timestamp = view.timestamp;
    data.assign(view.data.begin(), view.data.end());
    return *this;
  }

  /// Implicit, like std::string to std::string_view.
  operator PacketView() const { return {timestamp, data}; }
};

}  // namespace quicsand::net
