// Online (streaming) DoS detection.
//
// The paper's motivation (§1) is operational: "it will be crucial to
// monitor such attack attempts early in the QUIC deployment phase".
// The batch pipeline answers "what happened last month"; this detector
// answers "what is happening now": it consumes classified records in
// time order, keeps per-source open sessions, fires an alert callback
// the moment a session crosses the Moore et al. thresholds (not when it
// ends), and emits the finished attack when the session closes.
//
// Memory is bounded by the number of sources active within one timeout
// window; expired sessions are evicted lazily and by periodic sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/dos.hpp"
#include "core/record.hpp"
#include "core/sessions.hpp"
#include "obs/health.hpp"
#include "obs/hooks.hpp"

namespace quicsand::core {

struct OnlineDetectorConfig {
  util::Duration session_timeout = 5 * util::kMinute;
  DosThresholds thresholds;
  /// Sweep cadence for evicting idle sessions.
  util::Duration sweep_interval = util::kMinute;
  /// Optional observability sinks: obs.events receives the structured
  /// alert-fired / attack-closed / session-evicted stream (NDJSON-able),
  /// obs.metrics the online.* counters and the alert-latency histogram.
  obs::Hooks obs;
  /// Wall-clock source (microseconds since the epoch) read at alert
  /// time to measure wire -> alert detection latency against the
  /// IngestTiming stamps. Null (the default) disables the measurement,
  /// keeping scenario/golden runs free of nondeterministic reads.
  std::function<std::int64_t()> wall_clock;
};

class OnlineDetector {
 public:
  /// `on_alert` fires once per session, at the first record that pushes
  /// it over every threshold — the early-warning signal. `on_attack`
  /// fires when an alerted session closes, with the final numbers.
  using AlertCallback = std::function<void(const DetectedAttack&)>;

  explicit OnlineDetector(OnlineDetectorConfig config);

  void set_on_alert(AlertCallback callback) {
    on_alert_ = std::move(callback);
  }
  void set_on_attack(AlertCallback callback) {
    on_attack_ = std::move(callback);
  }

  /// Consume one record (non-decreasing timestamps). Only sanitized QUIC
  /// responses join sessions; every record drives the sweep. `timing`, when
  /// provided by a live capture path, carries the record's wall-clock
  /// ingest stamps; the first admitted packet's stamps anchor the
  /// session's wire -> alert detection latency.
  void consume(const PacketRecord& record,
               const IngestTiming* timing = nullptr);

  /// Close every open session (end of stream).
  void finish();

  [[nodiscard]] std::size_t open_sessions() const { return open_.size(); }
  [[nodiscard]] std::uint64_t alerts_fired() const { return alerts_; }
  [[nodiscard]] std::uint64_t attacks_closed() const { return closed_; }
  /// Sessions removed so far (expiry or finish), alerted or not.
  [[nodiscard]] std::uint64_t sessions_evicted() const { return evicted_; }
  /// Detection latency: seconds from session start to alert, averaged.
  [[nodiscard]] double mean_alert_latency_s() const {
    return alerts_ == 0 ? 0.0
                        : latency_sum_s_ / static_cast<double>(alerts_);
  }

 private:
  struct OpenSession {
    Session session;
    bool alerted = false;
    /// Wall-clock stamps of the first admitted packet (-1 unknown);
    /// the send stamp is preferred as the detection-latency origin,
    /// falling back to arrival when the frame carried none.
    std::int64_t first_send_wall_us = -1;
    std::int64_t first_recv_wall_us = -1;
  };

  [[nodiscard]] bool exceeds_thresholds(const Session& session) const;
  [[nodiscard]] DetectedAttack to_attack(const Session& session) const;
  void close(OpenSession& open);
  void evict(OpenSession& open);
  void sweep(util::Timestamp now);

  OnlineDetectorConfig config_;
  AlertCallback on_alert_;
  AlertCallback on_attack_;
  std::unordered_map<std::uint32_t, OpenSession> open_;
  util::Timestamp last_sweep_{};
  std::uint64_t alerts_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t evicted_ = 0;
  double latency_sum_s_ = 0;
  // Resolved metric handles; nullptr without an attached registry.
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* alerts_counter_ = nullptr;
  obs::Counter* attacks_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Gauge* open_gauge_ = nullptr;
  obs::LatencyHistogram* alert_latency_us_ = nullptr;
  obs::LatencyHistogram* detect_latency_us_ = nullptr;
  // Liveness component; heartbeat every 256 records, idle after finish.
  obs::Health::Component* health_ = nullptr;
  std::uint64_t consumed_ = 0;
  bool idle_ = false;
};

}  // namespace quicsand::core
