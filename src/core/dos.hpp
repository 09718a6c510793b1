// DoS attack inference over backscatter sessions (§5.2).
//
// A response session is an attack when it exceeds Moore et al.'s
// thresholds: more than 25 packets, longer than 60 seconds, and a
// 1-minute peak rate above 0.5 packets/second. Appendix B's sensitivity
// study multiplies every threshold by a weight w; weight(w) reproduces
// that sweep.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sessions.hpp"

namespace quicsand::core {

struct DosThresholds {
  double min_packets = 25;
  double min_duration_s = 60;
  Pps min_peak_pps{0.5};

  /// Moore et al. thresholds scaled by `w` (Figure 10).
  [[nodiscard]] DosThresholds weighted(double w) const {
    return {min_packets * w, min_duration_s * w, min_peak_pps * w};
  }

  /// The attack test itself (shared by the batch, parallel and online
  /// detectors): every threshold must be strictly exceeded.
  [[nodiscard]] bool admits(const Session& session) const;
};

struct DetectedAttack {
  std::size_t session_index = 0;  ///< into the analyzed session span
  net::Ipv4Address victim;        ///< the backscatter source
  util::Timestamp start{};
  util::Timestamp end{};
  PacketCount packets{};
  Pps peak_pps{};

  [[nodiscard]] util::Duration duration() const { return end - start; }
  [[nodiscard]] bool overlaps(const DetectedAttack& other,
                              util::Duration min_overlap) const {
    const auto lo = std::max(start, other.start);
    const auto hi = std::min(end, other.end);
    return hi - lo >= min_overlap;
  }

  friend bool operator==(const DetectedAttack&,
                         const DetectedAttack&) = default;
};

/// The attack `session` makes, at `session_index` in its session list;
/// the batch and the streaming detector both build attacks with it.
[[nodiscard]] DetectedAttack attack_of(const Session& session,
                                       std::size_t session_index = 0);

/// Select the sessions exceeding all thresholds.
std::vector<DetectedAttack> detect_attacks(std::span<const Session> sessions,
                                           const DosThresholds& thresholds);

/// Combine per-shard detect_attacks() outputs into the list the serial
/// detector would produce over the merged session list: session_index is
/// remapped through `global_index` (from merge_sessions) and the attacks
/// ordered by their merged session position.
std::vector<DetectedAttack> merge_attacks(
    std::vector<std::vector<DetectedAttack>> parts,
    const std::vector<std::vector<std::size_t>>& global_index);

/// Summary of the sessions NOT classified as attacks (Appendix B checks
/// their median intensity/duration/packets).
struct ExcludedSummary {
  std::uint64_t count = 0;
  double median_packets = 0;
  double median_duration_s = 0;
  double median_peak_pps = 0;  ///< median of peak rates, in pps
};

ExcludedSummary summarize_excluded(std::span<const Session> sessions,
                                   const DosThresholds& thresholds);

}  // namespace quicsand::core
