#include "core/online_shards.hpp"

#include <algorithm>
#include <tuple>

#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace quicsand::core {

namespace {

obs::DetectorEvent make_event(obs::DetectorEventType type,
                              const Session& session) {
  obs::DetectorEvent event;
  event.type = type;
  event.time = session.end;
  event.victim = session.source.to_string();
  event.packets = session.packets.count();
  event.peak_pps = session.peak_pps().count();
  event.duration_s = util::to_seconds(session.duration());
  return event;
}

// How often, in stream time, a shard closes its idle sessions.
constexpr util::Duration kSweepInterval = util::kMinute;

}  // namespace

ShardedOnlineDetector::ShardedOnlineDetector(
    ShardedOnlineDetectorConfig config)
    : config_(std::move(config.detector)) {
  const std::size_t count = std::max<std::size_t>(config.shards, 1);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_.session_timeout));
  }
  if (auto* metrics = config_.obs.metrics) {
    records_counter_ = &metrics->counter(
        "online.records", "records consumed by the online detector");
    alerts_counter_ =
        &metrics->counter("online.alerts", "threshold-crossing alerts fired");
    attacks_counter_ =
        &metrics->counter("online.attacks_closed", "alerted sessions closed");
    evictions_counter_ = &metrics->counter(
        "online.sessions_evicted", "sessions removed by expiry or finish");
    late_counter_ = &metrics->counter(
        "online.late_records", "records older than their session's start");
    open_gauge_ =
        &metrics->gauge("online.open_sessions", "sessions currently open");
    alert_latency_us_ = &metrics->histogram(
        "online.alert_latency_us", "session start to alert, simulation time");
    if (config_.wall_clock) {
      detect_latency_us_ = &metrics->histogram(
          "live.detect_latency_us",
          "first admitted packet on the wire to alert callback (us)");
    }
  }
  if (auto* health = config_.obs.health) {
    health_ = &health->component("online_detector");
    health_->set_ready(true);
  }
}

void ShardedOnlineDetector::set_on_alert(AlertCallback callback) {
  util::LockGuard lock(callback_mutex_);
  on_alert_ = std::move(callback);
}

void ShardedOnlineDetector::set_on_attack(AlertCallback callback) {
  util::LockGuard lock(callback_mutex_);
  on_attack_ = std::move(callback);
}

void ShardedOnlineDetector::alert(Shard& shard, OpenSession& open,
                                  util::Timestamp now) {
  open.alerted = true;
  ++shard.alerts;
  const auto latency = now - open.session.start;
  shard.latency_sum_s += util::to_seconds(latency);
  if (alerts_counter_ != nullptr) alerts_counter_->add();
  if (alert_latency_us_ != nullptr) {
    alert_latency_us_->record(static_cast<std::uint64_t>(
        std::max<std::int64_t>(latency.count(), 0)));
  }
  // Wall-clock detection latency: first admitted packet's wire stamp
  // (arrival stamp when the frame carried none) to this callback.
  double detect_latency_s = -1;
  const std::int64_t origin = open.first_send_wall_us >= 0
                                  ? open.first_send_wall_us
                                  : open.first_recv_wall_us;
  if (config_.wall_clock && origin >= 0) {
    const std::int64_t detect_us =
        std::max<std::int64_t>(config_.wall_clock() - origin, 0);
    detect_latency_s = static_cast<double>(detect_us) / 1e6;
    if (detect_latency_us_ != nullptr) {
      detect_latency_us_->record(static_cast<std::uint64_t>(detect_us));
    }
  }
  if (config_.obs.events != nullptr) {
    auto event = make_event(obs::DetectorEventType::kAlertFired, open.session);
    event.alert_latency_s = util::to_seconds(latency);
    event.detect_latency_s = detect_latency_s;
    event.duration_s = -1;  // session still open
    config_.obs.events->emit(std::move(event));
  }
  util::LockGuard lock(callback_mutex_);
  if (on_alert_) on_alert_(attack_of(open.session));
}

void ShardedOnlineDetector::on_closed(Shard& shard, const Session& session) {
  // admits() never turns false as a session grows, and consume() checks
  // it after every record, so a session is an attack at close exactly
  // when it alerted.
  const bool attack = config_.thresholds.admits(session);
  if (attack) {
    if (attacks_counter_ != nullptr) attacks_counter_->add();
    if (config_.obs.events != nullptr) {
      config_.obs.events->emit(
          make_event(obs::DetectorEventType::kAttackClosed, session));
    }
    shard.attacks.push_back(attack_of(session));
    util::LockGuard lock(callback_mutex_);
    if (on_attack_) on_attack_(shard.attacks.back());
  }
  ++shard.evicted;
  if (evictions_counter_ != nullptr) evictions_counter_->add();
  if (open_gauge_ != nullptr) open_gauge_->add(-1);
  if (config_.obs.events != nullptr) {
    auto event = make_event(obs::DetectorEventType::kSessionEvicted, session);
    event.alerted = attack;
    config_.obs.events->emit(std::move(event));
  }
}

void ShardedOnlineDetector::consume(std::size_t shard_index,
                                    const PacketRecord& record,
                                    const IngestTiming* timing) {
  Shard& shard = *shards_[shard_index % shards_.size()];
  if (records_counter_ != nullptr) records_counter_->add();
  // One heartbeat per 256 records keeps the watchdog fed without a
  // clock read on every record.
  if (health_ != nullptr && (++shard.consumed & 0xFF) == 0) {
    health_->heartbeat();
  }
  if (record.timestamp - shard.last_sweep >= kSweepInterval) {
    shard.table.close_idle(record.timestamp);
    shard.last_sweep = record.timestamp;
  }
  OpenSession* open = shard.table.absorb(record);
  // Report what the table closed, and keep none of it.
  auto& closed = shard.table.closed();
  for (const Session& session : closed) on_closed(shard, session);
  closed.clear();
  if (open == nullptr) return;
  // A one-packet session was opened by this record.
  if (open_gauge_ != nullptr && open->session.packets == PacketCount{1}) {
    open_gauge_->add(1);
  }
  if (late_counter_ != nullptr && record.timestamp < open->session.start) {
    late_counter_->add();
  }
  if (timing != nullptr) {
    // First available stamps anchor the session; later packets of an
    // already-anchored session leave them alone.
    if (open->first_send_wall_us < 0) {
      open->first_send_wall_us = timing->send_wall_us;
    }
    if (open->first_recv_wall_us < 0) {
      open->first_recv_wall_us = timing->recv_wall_us;
    }
  }
  if (!open->alerted && config_.thresholds.admits(open->session)) {
    alert(shard, *open, record.timestamp);
  }
}

const std::vector<DetectedAttack>& ShardedOnlineDetector::finish() {
  if (finished_) return merged_;
  finished_ = true;
  for (auto& shard : shards_) {
    for (const Session& session : shard->table.close_all()) {
      on_closed(*shard, session);
    }
    merged_.insert(merged_.end(), shard->attacks.begin(),
                   shard->attacks.end());
  }
  if (config_.obs.events != nullptr) config_.obs.events->flush();
  if (health_ != nullptr) {
    health_->heartbeat();
    health_->set_idle(true);  // stream drained: quiet, not stale
  }
  std::sort(merged_.begin(), merged_.end(),
            [](const DetectedAttack& a, const DetectedAttack& b) {
              return std::tuple(a.start, a.victim, a.end) <
                     std::tuple(b.start, b.victim, b.end);
            });
  for (std::size_t i = 0; i < merged_.size(); ++i) {
    merged_[i].session_index = i;
  }
  return merged_;
}

}  // namespace quicsand::core
