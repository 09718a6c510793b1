// Test-only capture writers shared by the pcap/pcapng suites and the
// pcap equivalence oracle: a minimal pcapng writer (the library itself
// writes classic pcap only) and Ethernet framing with optional VLAN tags.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/pcap.hpp"

namespace quicsand::net {

/// Minimal pcapng writer for tests (the library itself only reads).
class TestPcapngWriter {
 public:
  explicit TestPcapngWriter(bool big_endian = false)
      : big_endian_(big_endian) {}

  void section_header() {
    std::vector<std::uint8_t> body;
    put_u32(body, kPcapngByteOrderMagic);
    put_u16(body, 1);  // major
    put_u16(body, 0);  // minor
    for (int i = 0; i < 8; ++i) body.push_back(0xff);  // section length -1
    block(kPcapngSectionHeader, body);
  }

  void interface_description(std::uint16_t linktype,
                             std::optional<std::uint8_t> tsresol = {}) {
    std::vector<std::uint8_t> body;
    put_u16(body, linktype);
    put_u16(body, 0);  // reserved
    put_u32(body, 65535);  // snaplen
    if (tsresol) {
      put_u16(body, 9);  // if_tsresol
      put_u16(body, 1);
      body.push_back(*tsresol);
      body.push_back(0);  // padding to 4
      body.push_back(0);
      body.push_back(0);
      put_u16(body, 0);  // opt_endofopt
      put_u16(body, 0);
    }
    block(kPcapngInterfaceDescription, body);
  }

  void enhanced_packet(std::uint32_t interface_id, std::uint64_t ticks,
                       std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> body;
    put_u32(body, interface_id);
    put_u32(body, static_cast<std::uint32_t>(ticks >> 32));
    put_u32(body, static_cast<std::uint32_t>(ticks));
    put_u32(body, static_cast<std::uint32_t>(data.size()));
    put_u32(body, static_cast<std::uint32_t>(data.size()));
    body.insert(body.end(), data.begin(), data.end());
    while (body.size() % 4 != 0) body.push_back(0);
    block(kPcapngEnhancedPacket, body);
  }

  /// A Simple Packet Block: original length, then the data (no
  /// interface id, no timestamp).
  void simple_packet(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> body;
    put_u32(body, static_cast<std::uint32_t>(data.size()));
    body.insert(body.end(), data.begin(), data.end());
    while (body.size() % 4 != 0) body.push_back(0);
    block(kPcapngSimplePacket, body);
  }

  void unknown_block() { block(0x0bad, {0x01, 0x02, 0x03, 0x04}); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

  /// Writes the blocks built so far to a new file at `path` and forgets
  /// them.
  void save(const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    flush(out);
  }

  /// Appends the blocks built so far to `out` and forgets them, so a long
  /// capture need not sit in memory.
  void flush(std::ostream& out) {
    out.write(reinterpret_cast<const char*>(bytes_.data()),
              static_cast<std::streamsize>(bytes_.size()));
    bytes_.clear();
  }

 private:
  void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    if (big_endian_) {
      out.push_back(static_cast<std::uint8_t>(v >> 8));
      out.push_back(static_cast<std::uint8_t>(v));
    } else {
      out.push_back(static_cast<std::uint8_t>(v));
      out.push_back(static_cast<std::uint8_t>(v >> 8));
    }
  }
  void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    if (big_endian_) {
      for (int i = 3; i >= 0; --i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    } else {
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }
  void block(std::uint32_t type, std::vector<std::uint8_t> body) {
    const std::uint32_t total =
        static_cast<std::uint32_t>(12 + body.size());
    put_u32(bytes_, type);
    put_u32(bytes_, total);
    bytes_.insert(bytes_.end(), body.begin(), body.end());
    put_u32(bytes_, total);
  }

  bool big_endian_;
  std::vector<std::uint8_t> bytes_;
};

/// `payload` in an Ethernet frame: two MAC addresses, a 4-byte tag for
/// each tag protocol in `tags` (0x8100 802.1Q, 0x88a8 802.1ad), then
/// `ethertype` and the payload.
inline std::vector<std::uint8_t> ethernet_frame(
    std::span<const std::uint8_t> payload,
    std::span<const std::uint16_t> tags = {},
    std::uint16_t ethertype = 0x0800) {
  std::vector<std::uint8_t> frame(12, 0xee);  // destination + source MAC
  for (const std::uint16_t tag : tags) {
    frame.push_back(static_cast<std::uint8_t>(tag >> 8));
    frame.push_back(static_cast<std::uint8_t>(tag));
    frame.push_back(0x00);  // priority, DEI and VLAN id 42
    frame.push_back(0x2a);
  }
  frame.push_back(static_cast<std::uint8_t>(ethertype >> 8));
  frame.push_back(static_cast<std::uint8_t>(ethertype));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

}  // namespace quicsand::net
