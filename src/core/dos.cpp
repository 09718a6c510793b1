#include "core/dos.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace quicsand::core {

bool DosThresholds::admits(const Session& session) const {
  return static_cast<double>(session.packets.count()) > min_packets &&
         util::to_seconds(session.duration()) > min_duration_s &&
         session.peak_pps() > min_peak_pps;
}

DetectedAttack attack_of(const Session& session, std::size_t session_index) {
  return {session_index, session.source,   session.start,
          session.end,   session.packets, session.peak_pps()};
}

std::vector<DetectedAttack> detect_attacks(std::span<const Session> sessions,
                                           const DosThresholds& thresholds) {
  std::vector<DetectedAttack> attacks;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (thresholds.admits(sessions[i])) {
      attacks.push_back(attack_of(sessions[i], i));
    }
  }
  return attacks;
}

std::vector<DetectedAttack> merge_attacks(
    std::vector<std::vector<DetectedAttack>> parts,
    const std::vector<std::vector<std::size_t>>& global_index) {
  std::vector<DetectedAttack> merged;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  merged.reserve(total);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (auto& attack : parts[p]) {
      attack.session_index = global_index[p][attack.session_index];
      merged.push_back(attack);
    }
  }
  // Global session indices are unique, so ordering by them recovers the
  // serial emission order exactly.
  std::sort(merged.begin(), merged.end(),
            [](const DetectedAttack& a, const DetectedAttack& b) {
              return a.session_index < b.session_index;
            });
  return merged;
}

ExcludedSummary summarize_excluded(std::span<const Session> sessions,
                                   const DosThresholds& thresholds) {
  ExcludedSummary summary;
  std::vector<double> packets, durations, rates;
  for (const auto& session : sessions) {
    if (thresholds.admits(session)) continue;
    ++summary.count;
    packets.push_back(static_cast<double>(session.packets.count()));
    durations.push_back(util::to_seconds(session.duration()));
    rates.push_back(session.peak_pps().count());
  }
  if (summary.count > 0) {
    summary.median_packets = util::median_of(packets);
    summary.median_duration_s = util::median_of(durations);
    summary.median_peak_pps = util::median_of(rates);
  }
  return summary;
}

}  // namespace quicsand::core
