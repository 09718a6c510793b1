// Ground-truth ledger for a generated scenario.
//
// The real paper had to infer attacks from backscatter alone; our
// generator knows exactly what it injected. The ledger is what the
// integration tests validate the analysis pipeline against (recall /
// precision of the DoS detector, multi-vector shares, victim mix).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asdb/types.hpp"
#include "net/ip.hpp"
#include "util/time.hpp"

namespace quicsand::telescope {

enum class AttackProtocol : std::uint8_t { kQuic, kTcp, kIcmp };

const char* attack_protocol_name(AttackProtocol protocol);

/// Relationship of a QUIC attack to TCP/ICMP attacks on the same victim,
/// as planned by the scheduler (Figure 8 semantics).
enum class PlannedRelation : std::uint8_t {
  kConcurrent,
  kSequential,
  kIsolated,
  kNotApplicable,  ///< TCP/ICMP attacks themselves
};

struct PlannedAttack {
  AttackProtocol protocol = AttackProtocol::kQuic;
  net::Ipv4Address victim;
  asdb::Asn victim_asn = 0;
  bool victim_is_known_server = false;
  std::uint32_t quic_version = 0;  ///< QUIC attacks only
  util::Timestamp start{};
  util::Duration duration{};
  double peak_pps = 0;  ///< telescope-observed 1-minute peak target
  PlannedRelation relation = PlannedRelation::kNotApplicable;
};

struct BotnetSource {
  net::Ipv4Address address;
  asdb::Asn asn = 0;
  std::string country;
  bool tagged_malicious = false;
  std::string tag;  ///< threat-intel tag when tagged
};

struct GroundTruth {
  std::vector<PlannedAttack> attacks;
  std::vector<BotnetSource> botnet_sources;
  /// Research scanner probes the stream has carried so far.
  std::uint64_t research_probe_count = 0;
  std::uint64_t botnet_packet_count = 0;
  std::uint64_t backscatter_packet_count = 0;  ///< QUIC responses
  std::uint64_t common_packet_count = 0;       ///< TCP/ICMP responses
  std::uint64_t misconfig_packet_count = 0;
  std::uint64_t total_packet_count = 0;

  [[nodiscard]] std::vector<const PlannedAttack*> quic_attacks() const {
    std::vector<const PlannedAttack*> out;
    for (const auto& a : attacks) {
      if (a.protocol == AttackProtocol::kQuic) out.push_back(&a);
    }
    return out;
  }
};

}  // namespace quicsand::telescope
