// Shared types of the QUICsand analysis pipeline (the engine itself is
// core::ParallelPipeline): its options, the hourly series the figures
// consume, the per-record ingest helpers, and the attack analysis it
// returns.
#pragma once

#include <cstdint>
#include <vector>

#include "core/classifier.hpp"
#include "core/dos.hpp"
#include "core/sessions.hpp"
#include "obs/hooks.hpp"

namespace quicsand::core {

struct PipelineOptions {
  util::Timestamp window_start = util::kApril2021Start;
  int days = 30;
  std::vector<net::Ipv4Prefix> research_prefixes;
  util::Duration session_timeout = 5 * util::kMinute;
  DosThresholds thresholds;
  /// Optional metrics/tracing sinks; all-null (the default) costs one
  /// pointer check per packet.
  obs::Hooks obs;
};

/// Publish a ClassifierStats snapshot as gauges ("classifier.*") on
/// `metrics`; usable directly by tools that run a bare Classifier.
void publish_classifier_stats(const ClassifierStats& stats,
                              obs::MetricsRegistry& metrics);

/// The four hourly series the figures consume.
enum class HourlySlot : std::uint8_t {
  kResearchQuic,
  kOtherQuic,
  kQuicRequests,
  kQuicResponses,
};
constexpr std::size_t kHourlySlotCount = 4;

/// Per-hour packet counts over the analysis window.
struct HourlySeries {
  std::vector<std::uint64_t> research_quic;  ///< Figure 2
  std::vector<std::uint64_t> other_quic;     ///< Figure 2
  std::vector<std::uint64_t> quic_requests;  ///< Figure 3 (sanitized)
  std::vector<std::uint64_t> quic_responses; ///< Figure 3 (sanitized)

  [[nodiscard]] std::vector<std::uint64_t>& of(HourlySlot slot) {
    switch (slot) {
      case HourlySlot::kResearchQuic: return research_quic;
      case HourlySlot::kOtherQuic: return other_quic;
      case HourlySlot::kQuicRequests: return quic_requests;
      case HourlySlot::kQuicResponses: return quic_responses;
    }
    return research_quic;
  }
};

/// Invoke add(slot, hour) for each hourly series the record contributes
/// to. Out-of-window records contribute nothing.
template <typename AddFn>
void bin_hourly(const PacketRecord& record, util::Timestamp window_start,
                std::size_t hours, AddFn&& add) {
  if (!record.is_quic()) return;
  const auto bin = util::hour_bin(record.timestamp, window_start);
  if (bin.count() < 0 || bin.count() >= static_cast<std::int64_t>(hours)) {
    return;
  }
  const auto hour = static_cast<std::size_t>(bin.count());
  if (record.is_research) {
    add(HourlySlot::kResearchQuic, hour);
  } else {
    add(HourlySlot::kOtherQuic, hour);
    add(record.cls == TrafficClass::kQuicRequest
            ? HourlySlot::kQuicRequests
            : HourlySlot::kQuicResponses,
        hour);
  }
}

/// Detected QUIC and TCP/ICMP attacks at one set of thresholds, with the
/// session lists they were detected in.
struct AttackAnalysis {
  std::vector<Session> response_sessions;
  std::vector<Session> common_sessions;
  std::vector<DetectedAttack> quic_attacks;
  std::vector<DetectedAttack> common_attacks;
};

}  // namespace quicsand::core
