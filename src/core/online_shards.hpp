// Online (streaming) DoS detection, sharded by source.
//
// The paper's motivation (§1) is operational: "it will be crucial to
// monitor such attack attempts early in the QUIC deployment phase".
// This detector consumes classified records in time order, fires an
// alert the moment a session crosses the Moore et al. thresholds (not
// when it ends), and reports the finished attack when the session
// closes. Sessions are keyed by source, so a stream partitioned by
// source (util::shard_of, as the live receiver and ParallelPipeline use)
// splits into shards that share no state, one thread each.
//
// Each shard runs one SessionTable over the QUIC responses, the table
// the batch engine runs. Once a minute of stream time it closes the
// table's idle sessions, and after every record it reports and drops
// what the table closed, so memory is bounded by the sources active
// within one timeout window. An open session grows with its minutes,
// not its packets: nothing here fills the distinct sets (see Session).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/dos.hpp"
#include "core/record.hpp"
#include "core/sessions.hpp"
#include "obs/health.hpp"
#include "obs/hooks.hpp"
#include "util/sync.hpp"

namespace quicsand::core {

struct ShardedOnlineDetectorConfig {
  std::size_t shards = 1;
  /// What every shard runs with.
  struct Detector {
    util::Duration session_timeout = 5 * util::kMinute;
    DosThresholds thresholds;
    /// Optional observability sinks, resolved once for all shards:
    /// obs.events receives the structured alert-fired / attack-closed /
    /// session-evicted stream (NDJSON-able), obs.metrics the online.*
    /// counters, the open-sessions gauge and the alert-latency
    /// histogram, obs.health the `online_detector` component.
    obs::Hooks obs;
    /// Wall-clock source (microseconds since the epoch) read at alert
    /// time to measure wire -> alert detection latency against the
    /// IngestTiming stamps. Null (the default) disables the measurement,
    /// keeping scenario/golden runs free of nondeterministic reads.
    std::function<std::int64_t()> wall_clock;
  } detector;
};

class ShardedOnlineDetector {
 public:
  using AlertCallback = std::function<void(const DetectedAttack&)>;

  explicit ShardedOnlineDetector(ShardedOnlineDetectorConfig config);

  ShardedOnlineDetector(const ShardedOnlineDetector&) = delete;
  ShardedOnlineDetector& operator=(const ShardedOnlineDetector&) = delete;

  /// `on_alert` fires once per session, at the first record that pushes
  /// it over every threshold — the early-warning signal. `on_attack`
  /// fires when an alerted session closes, with the final numbers. Both
  /// run under one internal mutex, so concurrent shards never interleave
  /// inside them. Set before the first consume().
  void set_on_alert(AlertCallback callback);
  void set_on_attack(AlertCallback callback);

  /// Consume one record on shard `shard` (non-decreasing timestamps per
  /// shard). Only sanitized QUIC responses join sessions; every record
  /// drives its shard's once-a-minute close of idle sessions.
  /// Thread-safe across *distinct* shards (one thread per shard, the
  /// live receiver's contract). `timing`, when provided by a live
  /// capture path, carries the record's wall-clock ingest stamps; the
  /// first admitted packet's stamps anchor the session's wire -> alert
  /// detection latency.
  void consume(std::size_t shard, const PacketRecord& record,
               const IngestTiming* timing = nullptr);

  /// Close every open session on every shard (end of stream) and merge
  /// the per-shard attacks into one list ordered by (start, victim,
  /// end), with session_index rewritten to the merged position. Call
  /// after all consumers stopped; later calls return the same list.
  const std::vector<DetectedAttack>& finish();

  // Sums over all shards; read them from the consuming thread or after
  // the consumers stopped.
  [[nodiscard]] std::size_t open_sessions() const {
    return total([](const Shard& s) { return s.table.open_sessions(); });
  }
  [[nodiscard]] std::uint64_t alerts_fired() const {
    return total(&Shard::alerts);
  }
  [[nodiscard]] std::uint64_t attacks_closed() const {
    return total([](const Shard& s) { return s.attacks.size(); });
  }
  /// Sessions removed so far (expiry or finish), alerted or not.
  [[nodiscard]] std::uint64_t sessions_evicted() const {
    return total(&Shard::evicted);
  }
  /// Records older than their session's start (also counted in
  /// `online.late_records`). They join it in minute slot 0.
  [[nodiscard]] std::uint64_t late_records() const {
    return total([](const Shard& s) { return s.table.late_records(); });
  }
  /// Detection latency: seconds from session start to alert, averaged.
  [[nodiscard]] double mean_alert_latency_s() const {
    const auto alerts = static_cast<double>(alerts_fired());
    return alerts == 0 ? 0.0 : total(&Shard::latency_sum_s) / alerts;
  }

 private:
  /// One shard's state, written only by its consuming thread. Each is
  /// its own cache-line-aligned allocation, so shards share no line.
  struct alignas(64) Shard {
    explicit Shard(util::Duration timeout)
        : table(timeout, quic_response_filter()) {}
    SessionTable table;
    util::Timestamp last_sweep{};  ///< when idle sessions last closed
    std::uint64_t consumed = 0;    ///< drives the health heartbeat
    std::uint64_t alerts = 0;
    std::uint64_t evicted = 0;
    double latency_sum_s = 0;
    std::vector<DetectedAttack> attacks;  ///< closed, in close order
  };

  /// The sum over the shards of a field, or of what `of` returns.
  template <typename F, typename T = std::remove_cvref_t<
                            std::invoke_result_t<F, const Shard&>>>
  [[nodiscard]] T total(F of) const {
    T sum{};
    for (const auto& shard : shards_) sum += std::invoke(of, *shard);
    return sum;
  }
  void alert(Shard& shard, OpenSession& open, util::Timestamp now);
  /// Bookkeeping for a session the shard's table closed: the
  /// attack-closed side effects first, then the eviction event.
  void on_closed(Shard& shard, const Session& session);

  ShardedOnlineDetectorConfig::Detector config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Bottom of the repo's lock hierarchy (kOnlineAlert): a callback
  /// typically emits into an EventLog (kEventLog), which in turn pushes
  /// to subscriber rings (kEventSubscription).
  util::Mutex callback_mutex_{util::LockRank::kOnlineAlert, "online_alert"};
  AlertCallback on_alert_ QS_GUARDED_BY(callback_mutex_);
  AlertCallback on_attack_ QS_GUARDED_BY(callback_mutex_);
  std::vector<DetectedAttack> merged_;  ///< finish()/main thread only
  bool finished_ = false;               ///< finish()/main thread only
  // Resolved metric handles; nullptr without an attached registry.
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* alerts_counter_ = nullptr;
  obs::Counter* attacks_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* late_counter_ = nullptr;
  obs::Gauge* open_gauge_ = nullptr;  ///< +1 per open, -1 per eviction
  obs::Histogram* alert_latency_us_ = nullptr;
  obs::Histogram* detect_latency_us_ = nullptr;
  // Liveness component; each shard heartbeats it every 256 records,
  // idle after finish.
  obs::Health::Component* health_ = nullptr;
};

}  // namespace quicsand::core
