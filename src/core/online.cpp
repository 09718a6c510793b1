#include "core/online.hpp"

#include <algorithm>

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

}  // namespace

OnlineDetector::OnlineDetector(OnlineDetectorConfig config)
    : config_(std::move(config)) {
  if (auto* metrics = config_.obs.metrics) {
    records_counter_ = &metrics->counter(
        "online.records", "records consumed by the online detector");
    alerts_counter_ =
        &metrics->counter("online.alerts", "threshold-crossing alerts fired");
    attacks_counter_ =
        &metrics->counter("online.attacks_closed", "alerted sessions closed");
    evictions_counter_ = &metrics->counter(
        "online.sessions_evicted", "sessions removed by expiry or finish");
    open_gauge_ =
        &metrics->gauge("online.open_sessions", "sessions currently open");
    alert_latency_us_ = &metrics->latency(
        "online.alert_latency_us", "session start to alert, simulation time");
    if (config_.wall_clock) {
      detect_latency_us_ = &metrics->latency(
          "live.detect_latency_us",
          "first admitted packet on the wire to alert callback (us)");
    }
  }
  if (auto* health = config_.obs.health) {
    health_ = &health->component("online_detector");
    health_->set_ready(true);
  }
}

bool OnlineDetector::exceeds_thresholds(const Session& session) const {
  return config_.thresholds.admits(session);
}

DetectedAttack OnlineDetector::to_attack(const Session& session) const {
  DetectedAttack attack;
  attack.victim = session.source;
  attack.start = session.start;
  attack.end = session.end;
  attack.packets = session.packets;
  attack.peak_pps = session.peak_pps();
  return attack;
}

void OnlineDetector::close(OpenSession& open) {
  if (open.alerted) {
    ++closed_;
    if (attacks_counter_ != nullptr) attacks_counter_->add();
    if (config_.obs.events != nullptr) {
      config_.obs.events->emit(make_event(
          obs::DetectorEventType::kAttackClosed, open.session));
    }
    if (on_attack_) on_attack_(to_attack(open.session));
  }
}

/// Bookkeeping for any session leaving the open table; close() first for
/// the attack-closed side effects, then the eviction event.
void OnlineDetector::evict(OpenSession& open) {
  close(open);
  ++evicted_;
  if (evictions_counter_ != nullptr) evictions_counter_->add();
  if (config_.obs.events != nullptr) {
    auto event =
        make_event(obs::DetectorEventType::kSessionEvicted, open.session);
    event.alerted = open.alerted;
    config_.obs.events->emit(std::move(event));
  }
}

void OnlineDetector::sweep(util::Timestamp now) {
  for (auto it = open_.begin(); it != open_.end();) {
    if (now - it->second.session.end > config_.session_timeout) {
      evict(it->second);
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  if (open_gauge_ != nullptr) {
    open_gauge_->set(static_cast<std::int64_t>(open_.size()));
  }
}

void OnlineDetector::consume(const PacketRecord& record,
                             const IngestTiming* timing) {
  if (records_counter_ != nullptr) records_counter_->add();
  // One heartbeat per 256 records keeps the watchdog fed without a
  // clock read on every record.
  if (health_ != nullptr) {
    if (idle_) {
      health_->set_idle(false);
      idle_ = false;
    }
    if ((++consumed_ & 0xFF) == 0) health_->heartbeat();
  }
  if (last_sweep_ == util::Timestamp{}) last_sweep_ = record.timestamp;
  if (record.timestamp - last_sweep_ >= config_.sweep_interval) {
    sweep(record.timestamp);
    last_sweep_ = record.timestamp;
  }
  if (!accepts(quic_response_filter(), record)) return;

  auto [it, inserted] = open_.try_emplace(record.src.value());
  OpenSession& open = it->second;
  if (!inserted &&
      record.timestamp - open.session.end > config_.session_timeout) {
    // The previous session expired: close it and start fresh.
    evict(open);
    open = OpenSession{};
    inserted = true;
  }
  if (inserted) {
    open.session.source = record.src;
    open.session.start = record.timestamp;
    open.session.end = record.timestamp;
    if (open_gauge_ != nullptr) {
      open_gauge_->set(static_cast<std::int64_t>(open_.size()));
    }
  }
  if (timing != nullptr) {
    // First available stamps anchor the session; later packets of an
    // already-anchored session leave them alone.
    if (open.first_send_wall_us < 0) {
      open.first_send_wall_us = timing->send_wall_us;
    }
    if (open.first_recv_wall_us < 0) {
      open.first_recv_wall_us = timing->recv_wall_us;
    }
  }
  absorb_record(open.session, record);

  if (!open.alerted && exceeds_thresholds(open.session)) {
    open.alerted = true;
    ++alerts_;
    const auto latency = record.timestamp - open.session.start;
    latency_sum_s_ += util::to_seconds(latency);
    if (alerts_counter_ != nullptr) alerts_counter_->add();
    if (alert_latency_us_ != nullptr) {
      alert_latency_us_->record(static_cast<std::uint64_t>(
          std::max<std::int64_t>(latency.count(), 0)));
    }
    // Wall-clock detection latency: first admitted packet's wire stamp
    // (arrival stamp when the frame carried none) to this callback.
    double detect_latency_s = -1;
    if (config_.wall_clock) {
      const std::int64_t origin = open.first_send_wall_us >= 0
                                      ? open.first_send_wall_us
                                      : open.first_recv_wall_us;
      if (origin >= 0) {
        const std::int64_t detect_us =
            std::max<std::int64_t>(config_.wall_clock() - origin, 0);
        detect_latency_s = static_cast<double>(detect_us) / 1e6;
        if (detect_latency_us_ != nullptr) {
          detect_latency_us_->record(static_cast<std::uint64_t>(detect_us));
        }
      }
    }
    if (config_.obs.events != nullptr) {
      auto event =
          make_event(obs::DetectorEventType::kAlertFired, open.session);
      event.alert_latency_s = util::to_seconds(latency);
      event.detect_latency_s = detect_latency_s;
      event.duration_s = -1;  // session still open
      config_.obs.events->emit(std::move(event));
    }
    if (on_alert_) on_alert_(to_attack(open.session));
  }
}

void OnlineDetector::finish() {
  for (auto& [source, open] : open_) evict(open);
  open_.clear();
  if (open_gauge_ != nullptr) open_gauge_->set(0);
  if (config_.obs.events != nullptr) config_.obs.events->flush();
  if (health_ != nullptr) {
    health_->heartbeat();
    health_->set_idle(true);  // stream drained: quiet, not stale
    idle_ = true;
  }
}

}  // namespace quicsand::core
