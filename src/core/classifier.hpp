// Traffic classifier (§4.1 of the paper).
//
// QUIC is identified by transport-layer properties — UDP with source or
// destination port 443 — and validated with the payload dissector, the
// role Wireshark plays in the paper. Packets with source port 443 are
// responses (backscatter), destination port 443 requests (scans). TCP and
// ICMP packets are split into scans and backscatter by flags/type, as in
// Moore et al.'s backscatter methodology.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/record.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "util/time.hpp"

namespace quicsand::core {

struct ClassifierConfig {
  /// Sources inside these prefixes are flagged as research scanners
  /// (TUM / RWTH in the paper) and can be removed from analyses.
  std::vector<net::Ipv4Prefix> research_prefixes;
};

struct ClassifierStats {
  std::uint64_t total = 0;
  std::uint64_t undecodable = 0;  ///< not parseable as IPv4/UDP/TCP/ICMP
  std::array<std::uint64_t, kTrafficClassCount> by_class{};
  std::uint64_t research = 0;           ///< research-flagged QUIC packets
  std::uint64_t research_requests = 0;  ///< research QUIC requests
  std::uint64_t quic_port_rejects = 0;  ///< UDP/443 that failed dissection
  std::uint64_t kept = 0;  ///< records kept for analysis (keep_for_analysis)

  [[nodiscard]] std::uint64_t of(TrafficClass cls) const {
    return by_class[static_cast<std::size_t>(cls)];
  }
  /// QUIC packets after research-scanner removal.
  [[nodiscard]] std::uint64_t sanitized_quic() const {
    return of(TrafficClass::kQuicRequest) + of(TrafficClass::kQuicResponse) -
           research;
  }
  [[nodiscard]] std::uint64_t sanitized_requests() const {
    return of(TrafficClass::kQuicRequest) - research_requests;
  }
  [[nodiscard]] std::uint64_t sanitized_responses() const {
    return of(TrafficClass::kQuicResponse) -
           (research - research_requests);
  }

  /// Fold another classifier's counters into this one (parallel
  /// classification keeps one Classifier per worker).
  void merge_from(const ClassifierStats& other);
};

/// True when the record feeds the analysis stages: research scanners and
/// unclassified traffic are counted, then dropped.
[[nodiscard]] inline bool keep_for_analysis(const PacketRecord& record) {
  return !record.is_research && record.cls != TrafficClass::kOther;
}

class Classifier {
 public:
  explicit Classifier(ClassifierConfig config);

  /// Classify one captured datagram. Returns nullopt for undecodable
  /// packets; all decodable packets produce a record (possibly kOther).
  std::optional<PacketRecord> classify(const net::RawPacket& packet);

  /// Zero-copy variant over a non-owning view (batched ingest); the
  /// RawPacket overload delegates here.
  std::optional<PacketRecord> classify(util::Timestamp timestamp,
                                       std::span<const std::uint8_t> data);

  [[nodiscard]] const ClassifierStats& stats() const { return stats_; }

 private:
  ClassifierConfig config_;
  ClassifierStats stats_;
};

}  // namespace quicsand::core
