// Compact per-packet record produced by the classifier.
//
// The telescope sees tens of millions of packets; everything downstream
// (sessionization, DoS detection, correlation) operates on these 48-byte
// records instead of raw datagrams.
#pragma once

#include <array>
#include <cstdint>

#include "net/ip.hpp"
#include "quic/connection_id.hpp"
#include "quic/dissector.hpp"
#include "util/time.hpp"

namespace quicsand::core {

enum class TrafficClass : std::uint8_t {
  kQuicRequest,     ///< UDP, destination port 443, valid QUIC
  kQuicResponse,    ///< UDP, source port 443, valid QUIC (backscatter)
  kTcpRequest,      ///< TCP SYN (scan)
  kTcpBackscatter,  ///< TCP SYN-ACK / RST (flood response)
  kIcmpBackscatter, ///< ICMP echo reply / unreachable / time exceeded
  kOther,           ///< everything else (incl. non-QUIC UDP/443)
};

constexpr std::size_t kTrafficClassCount = 6;

const char* traffic_class_name(TrafficClass cls);

/// Number of QuicPacketKind enumerators (for fixed-size histograms).
constexpr std::size_t kQuicKindCount = 7;

struct PacketRecord {
  util::Timestamp timestamp{};
  net::Ipv4Address src;
  net::Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t wire_size = 0;  ///< IPv4 total length
  TrafficClass cls = TrafficClass::kOther;
  bool is_research = false;  ///< source matches a research scanner prefix
  std::uint32_t quic_version = 0;  ///< first long-header version, 0 if none
  /// QUIC packets in the datagram, saturating at 255.
  std::uint8_t quic_packet_count = 0;
  /// Per-kind QUIC message counts within the datagram, indexed by
  /// QuicPacketKind and saturating at 255; drives the §6 composition
  /// analysis.
  std::array<std::uint8_t, kQuicKindCount> kind_counts{};
  bool has_scid = false;
  /// FNV hash of the first long-header SCID; distinct-SCID counting only
  /// needs equality, so the record stays compact at telescope volumes.
  std::uint64_t scid_hash = 0;

  [[nodiscard]] bool is_quic() const {
    return cls == TrafficClass::kQuicRequest ||
           cls == TrafficClass::kQuicResponse;
  }

  friend bool operator==(const PacketRecord&, const PacketRecord&) = default;
};

/// Wall-clock ingest stamps (microseconds since the epoch, -1 unknown)
/// a live capture path can hand the online detector alongside a record,
/// so per-attack detection latency can be measured wire -> alert. Kept
/// out of PacketRecord: scenario/pcap paths have no wall-clock story
/// and the record stays at its compact size.
struct IngestTiming {
  std::int64_t send_wall_us = -1;  ///< sender's wire stamp (QSL2)
  std::int64_t recv_wall_us = -1;  ///< capture-socket arrival stamp
};

}  // namespace quicsand::core
