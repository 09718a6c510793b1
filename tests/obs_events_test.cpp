// Detector event log: the online detector emits a structured stream in
// causal order (alert_fired before attack_closed before the session's
// eviction), the online.* metrics agree with the detector's own
// accounting, and the NDJSON serialization is pinned.
#include <gtest/gtest.h>

#include <sstream>

#include "core/online_shards.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace quicsand::core {
namespace {

constexpr util::Timestamp kT0 = util::kApril2021Start;

PacketRecord response_record(util::Timestamp t, std::uint32_t src) {
  PacketRecord record;
  record.timestamp = t;
  record.src = net::Ipv4Address(src);
  record.dst = net::Ipv4Address(0x2c000001);
  record.src_port = 443;
  record.dst_port = 40000;
  record.wire_size = 1200;
  record.cls = TrafficClass::kQuicResponse;
  record.quic_version = 1;
  return record;
}

TEST(ObsEvents, DetectorEmitsAlertThenCloseThenEviction) {
  obs::EventLog log;
  obs::MetricsRegistry metrics;
  ShardedOnlineDetectorConfig config;
  config.detector.obs.events = &log;
  config.detector.obs.metrics = &metrics;
  ShardedOnlineDetector detector(config);

  // One attacking source (2 pps, 10 min: alerts around the 1-min mark)
  // and one two-packet source that never alerts (evicted by the sweep
  // once it has been idle past the session timeout).
  for (int i = 0; i < 1200; ++i) {
    const auto t = kT0 + i * util::kSecond / 2;
    detector.consume(0, response_record(t, 0xaaaa0001));
    if (i < 2) detector.consume(0, response_record(t, 0xbbbb0001));
  }
  detector.finish();

  const auto events = log.events();
  // alert + close + 2 evictions (one per session).
  ASSERT_EQ(events.size(), 4u);

  std::size_t alert_idx = events.size(), close_idx = events.size();
  std::size_t alerted_evictions = 0, quiet_evictions = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    switch (events[i].type) {
      case obs::DetectorEventType::kAlertFired: alert_idx = i; break;
      case obs::DetectorEventType::kAttackClosed: close_idx = i; break;
      case obs::DetectorEventType::kSessionEvicted:
        (events[i].alerted ? alerted_evictions : quiet_evictions) += 1;
        break;
    }
  }
  ASSERT_LT(alert_idx, events.size());
  ASSERT_LT(close_idx, events.size());
  EXPECT_LT(alert_idx, close_idx);  // the alert precedes the close
  EXPECT_EQ(alerted_evictions, 1u);
  EXPECT_EQ(quiet_evictions, 1u);

  const auto& alert = events[alert_idx];
  EXPECT_EQ(alert.victim, "170.170.0.1");
  EXPECT_GT(alert.alert_latency_s, 60.0);
  EXPECT_LT(alert.alert_latency_s, 120.0);
  EXPECT_LT(alert.time, events[close_idx].time);

  const auto& close = events[close_idx];
  EXPECT_EQ(close.victim, "170.170.0.1");
  EXPECT_EQ(close.packets, 1200u);
  EXPECT_NEAR(close.duration_s, 599.5, 0.1);

  // The online.* metrics mirror the detector counters.
  EXPECT_EQ(metrics.counter("online.records").value(), 1202u);
  EXPECT_EQ(metrics.counter("online.alerts").value(),
            detector.alerts_fired());
  EXPECT_EQ(metrics.counter("online.attacks_closed").value(),
            detector.attacks_closed());
  EXPECT_EQ(metrics.counter("online.sessions_evicted").value(),
            detector.sessions_evicted());
  EXPECT_EQ(metrics.gauge("online.open_sessions").value(), 0);
  EXPECT_EQ(metrics.histogram("online.alert_latency_us").count(), 1u);
}

TEST(ObsEvents, NdjsonSerializationIsPinned) {
  obs::DetectorEvent event;
  event.type = obs::DetectorEventType::kAlertFired;
  event.time = kT0;
  event.victim = "44.1.2.3";
  event.packets = 131;
  event.peak_pps = 2.18;
  event.alert_latency_s = 86.0;
  EXPECT_EQ(obs::to_json_line(event),
            "{\"event\": \"alert_fired\", "
            "\"time\": \"2021-04-01 00:00:00\", "
            "\"time_us\": 1617235200000000, "
            "\"victim\": \"44.1.2.3\", "
            "\"packets\": 131, \"peak_pps\": 2.180, "
            "\"alert_latency_s\": 86.000}");

  // With a wall-clock pipeline latency attached, the alert line also
  // carries detect_latency_s; absent (-1) it stays off the line, which
  // is what keeps the scenario-mode goldens above byte-identical.
  event.detect_latency_s = 0.25;
  EXPECT_EQ(obs::to_json_line(event),
            "{\"event\": \"alert_fired\", "
            "\"time\": \"2021-04-01 00:00:00\", "
            "\"time_us\": 1617235200000000, "
            "\"victim\": \"44.1.2.3\", "
            "\"packets\": 131, \"peak_pps\": 2.180, "
            "\"alert_latency_s\": 86.000, "
            "\"detect_latency_s\": 0.250}");
  event.detect_latency_s = -1;

  event.type = obs::DetectorEventType::kSessionEvicted;
  event.alert_latency_s = -1;
  event.duration_s = 12.5;
  event.alerted = true;
  EXPECT_EQ(obs::to_json_line(event),
            "{\"event\": \"session_evicted\", "
            "\"time\": \"2021-04-01 00:00:00\", "
            "\"time_us\": 1617235200000000, "
            "\"victim\": \"44.1.2.3\", "
            "\"packets\": 131, \"peak_pps\": 2.180, "
            "\"duration_s\": 12.500, \"alerted\": true}");
}

TEST(ObsEvents, StreamTeeMatchesBatchExport) {
  obs::EventLog log;
  std::ostringstream teed;
  log.set_stream(&teed);

  obs::DetectorEvent event;
  event.type = obs::DetectorEventType::kAttackClosed;
  event.time = kT0 + util::kMinute;
  event.victim = "44.0.0.9";
  event.packets = 500;
  event.peak_pps = 10;
  event.duration_s = 60;
  log.emit(event);
  event.packets = 600;
  log.emit(event);

  std::ostringstream batch;
  log.write_ndjson(batch);
  EXPECT_EQ(teed.str(), batch.str());
  EXPECT_EQ(log.size(), 2u);
  // One JSON object per line.
  std::istringstream lines(batch.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(n, 2u);
}

/// Ostream over a streambuf that counts sync() calls, to observe which
/// emits force a flush through the tee stream.
class FlushCountingBuf : public std::stringbuf {
 public:
  int flushes = 0;

 protected:
  int sync() override {
    ++flushes;
    return std::stringbuf::sync();
  }
};

TEST(ObsEvents, AlertEventsFlushTheTeeStream) {
  obs::EventLog log;
  FlushCountingBuf buf;
  std::ostream out(&buf);
  log.set_stream(&out);

  obs::DetectorEvent event;
  event.type = obs::DetectorEventType::kSessionEvicted;
  event.victim = "44.0.0.9";
  log.emit(event);
  EXPECT_EQ(buf.flushes, 0);  // routine events may sit in the buffer

  event.type = obs::DetectorEventType::kAlertFired;
  log.emit(event);
  EXPECT_EQ(buf.flushes, 1);  // an alert line must hit the sink now

  log.flush();
  EXPECT_EQ(buf.flushes, 2);
}

TEST(ObsEvents, SubscriptionReceivesLinesInOrder) {
  obs::EventLog log;
  const auto subscription = log.subscribe(8);

  obs::DetectorEvent event;
  event.type = obs::DetectorEventType::kAlertFired;
  event.victim = "44.0.0.1";
  log.emit(event);
  event.victim = "44.0.0.2";
  log.emit(event);

  const auto first = subscription->pop(util::Duration{0});
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("44.0.0.1"), std::string::npos);
  const auto second = subscription->pop(util::Duration{0});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("44.0.0.2"), std::string::npos);
  EXPECT_FALSE(subscription->pop(util::Duration{0}).has_value());
  EXPECT_EQ(subscription->take_dropped(), 0u);
  log.unsubscribe(subscription);
  EXPECT_TRUE(subscription->closed());
}

TEST(ObsEvents, SlowSubscriberDropsOldestAndCounts) {
  obs::EventLog log;
  const auto subscription = log.subscribe(2);

  obs::DetectorEvent event;
  event.type = obs::DetectorEventType::kAlertFired;
  for (const char* victim : {"44.0.0.1", "44.0.0.2", "44.0.0.3"}) {
    event.victim = victim;
    log.emit(event);
  }

  // Ring of 2: the oldest line was dropped and counted.
  EXPECT_EQ(subscription->take_dropped(), 1u);
  EXPECT_EQ(subscription->take_dropped(), 0u);  // read-and-reset
  const auto first = subscription->pop(util::Duration{0});
  ASSERT_TRUE(first.has_value());
  EXPECT_NE(first->find("44.0.0.2"), std::string::npos);
  const auto second = subscription->pop(util::Duration{0});
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->find("44.0.0.3"), std::string::npos);
}

TEST(ObsEvents, DestructorClosesSubscriptions) {
  std::shared_ptr<obs::EventSubscription> subscription;
  {
    obs::EventLog log;
    subscription = log.subscribe(4);
    EXPECT_FALSE(subscription->closed());
  }
  EXPECT_TRUE(subscription->closed());
  EXPECT_FALSE(subscription->pop(util::Duration{0}).has_value());
}

}  // namespace
}  // namespace quicsand::core
