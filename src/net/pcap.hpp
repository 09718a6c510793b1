// Capture files: a classic pcap writer and one reader for classic pcap
// and pcapng.
//
// We write LINKTYPE_RAW (101) classic pcap: bare IPv4 datagrams, the
// natural format for telescope data. The reader tells the formats apart
// by the first four bytes, so analyze_pcap takes what an operator's
// tooling wrote: classic pcap in either byte order with µs or ns stamps,
// and pcapng Section Header (byte order per section), Interface
// Description (link type, `if_tsresol`) and Enhanced Packet Blocks.
// Simple Packet Blocks carry no timestamp, which sessionization needs, so
// they are skipped and counted like other blocks. Classic pcap reads as a
// capture with one interface (its link type, 10^6 or 10^9 ticks per
// second), so both formats share the interface table, timestamp
// conversion, link-layer step (Ethernet header and 802.1Q/802.1ad tags
// stripped) and `pcap.*` counters.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/hooks.hpp"

namespace quicsand::net {

constexpr std::uint32_t kPcapMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kPcapMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kLinktypeEthernet = 1;
constexpr std::uint32_t kLinktypeRaw = 101;

constexpr std::uint32_t kPcapngSectionHeader = 0x0a0d0d0a;
constexpr std::uint32_t kPcapngInterfaceDescription = 0x00000001;
constexpr std::uint32_t kPcapngSimplePacket = 0x00000003;
constexpr std::uint32_t kPcapngEnhancedPacket = 0x00000006;
constexpr std::uint32_t kPcapngByteOrderMagic = 0x1a2b3c4d;

class PcapWriter {
 public:
  /// Opens (truncates) `path` and writes the global header.
  /// Throws std::runtime_error if the file cannot be created.
  explicit PcapWriter(const std::string& path,
                      std::uint32_t linktype = kLinktypeRaw);

  void write(const RawPacket& packet);

  [[nodiscard]] std::uint64_t packets_written() const { return count_; }

 private:
  std::ofstream out_;
  std::uint64_t count_ = 0;
};

class PcapReader {
 public:
  /// Opens `path` and reads the classic header or the first Section
  /// Header Block. Throws std::runtime_error on open failure, bad magic
  /// or a classic link type other than raw IPv4 and Ethernet.
  explicit PcapReader(const std::string& path);

  /// Reads from a caller-owned stream, which must outlive the reader
  /// (in-memory captures, fuzz drivers). Throws like the file constructor.
  explicit PcapReader(std::istream& in);

  /// Next packet as a raw IPv4 datagram, skipping non-packet blocks and
  /// packets on interfaces of other link types. nullopt at a clean end of
  /// file; throws std::runtime_error on truncated or malformed input.
  /// The view points into the reader's buffer and is valid until the
  /// next call (libpcap's pcap_next_ex contract): a caller that keeps a
  /// packet copies it first, with RawPacket(view). Nothing is allocated
  /// per record once the buffer holds the largest record read so far.
  std::optional<PacketView> next();

  /// Invoke `fn` for each remaining packet; returns the count. Each view
  /// is valid during its call only.
  std::uint64_t for_each(const std::function<void(PacketView)>& fn);

  /// Interface 0's link type (0 before a pcapng capture describes one).
  [[nodiscard]] std::uint32_t linktype() const {
    return interfaces_.empty() ? 0 : interfaces_.front().linktype;
  }

  /// Interfaces described so far in this section; 1 for classic pcap.
  [[nodiscard]] std::size_t interface_count() const {
    return interfaces_.size();
  }

  /// Attach a metrics registry (the "pcap.*" counters and read latency);
  /// nullptr detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Interface {
    std::uint32_t linktype;
    std::uint64_t ticks_per_second;
  };

  void open();
  std::size_t fill(std::size_t n);
  bool at_end();
  const std::uint8_t* take(std::size_t n);
  [[noreturn]] void truncated(const char* what);
  [[nodiscard]] std::uint16_t u16(const std::uint8_t* p) const;
  [[nodiscard]] std::uint32_t u32(const std::uint8_t* p) const;
  bool next_block(std::uint32_t& type, std::span<const std::uint8_t>& body);
  void add_interface(std::span<const std::uint8_t> body);
  std::optional<PacketView> make_packet(const Interface& iface,
                                        std::uint64_t ticks,
                                        std::span<const std::uint8_t> frame);

  std::ifstream file_;
  std::istream* in_ = nullptr;  ///< &file_ or the caller's stream
  std::vector<std::uint8_t> buf_;  ///< unread bytes are [pos_, end_)
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool classic_ = false;
  bool big_endian_ = false;
  std::vector<Interface> interfaces_;
  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* truncated_counter_ = nullptr;
  obs::Counter* ethernet_counter_ = nullptr;
  obs::Counter* skipped_blocks_counter_ = nullptr;
  obs::Counter* linktype_drops_counter_ = nullptr;
  obs::Histogram* read_us_ = nullptr;  ///< per-packet read latency
};

}  // namespace quicsand::net
