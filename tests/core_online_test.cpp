// Online detector: early alerts, equivalence with the batch detector,
// and bounded memory under source churn.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/online_shards.hpp"
#include "core/parallel_pipeline.hpp"
#include "obs/metrics.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

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

TEST(OnlineDetector, AlertsBeforeSessionEnds) {
  ShardedOnlineDetector detector({});
  std::vector<DetectedAttack> alerts, attacks;
  detector.set_on_alert([&](const DetectedAttack& a) { alerts.push_back(a); });
  detector.set_on_attack(
      [&](const DetectedAttack& a) { attacks.push_back(a); });

  // 2 pps for 10 minutes: crosses every threshold around the 1-minute
  // mark (26 packets, >60 s); keeps going long after.
  for (int i = 0; i < 1200; ++i) {
    detector.consume(
        0, response_record(kT0 + i * util::kSecond / 2, 0xaaaa0001));
  }
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(detector.alerts_fired(), 1u);
  // Alert fired early, not at the end of the 10-minute session.
  EXPECT_LT(util::to_seconds(alerts[0].end - alerts[0].start), 120.0);
  EXPECT_GT(detector.mean_alert_latency_s(), 60.0);
  EXPECT_LT(detector.mean_alert_latency_s(), 120.0);

  EXPECT_TRUE(attacks.empty());  // session still open
  detector.finish();
  ASSERT_EQ(attacks.size(), 1u);
  EXPECT_EQ(attacks[0].packets.count(), 1200u);
}

TEST(OnlineDetector, BelowThresholdSessionsNeverAlert) {
  ShardedOnlineDetector detector({});
  std::uint64_t alerts = 0;
  detector.set_on_alert([&](const DetectedAttack&) { ++alerts; });
  // 20 packets over 5 seconds: too few, too short.
  for (int i = 0; i < 20; ++i) {
    detector.consume(
        0, response_record(kT0 + i * 250 * util::kMillisecond, 0xbbbb0001));
  }
  detector.finish();
  EXPECT_EQ(alerts, 0u);
  EXPECT_EQ(detector.attacks_closed(), 0u);
}

TEST(OnlineDetector, TimeoutSplitsSessions) {
  ShardedOnlineDetector detector({});
  std::vector<DetectedAttack> attacks;
  detector.set_on_attack(
      [&](const DetectedAttack& a) { attacks.push_back(a); });
  // Attack burst, then silence > timeout, then a second burst from the
  // same source.
  for (int burst = 0; burst < 2; ++burst) {
    const auto base = kT0 + burst * util::kHour;
    for (int i = 0; i < 200; ++i) {
      detector.consume(
          0, response_record(base + i * util::kSecond, 0xcccc0001));
    }
  }
  detector.finish();
  ASSERT_EQ(attacks.size(), 2u);
  EXPECT_EQ(attacks[0].packets.count(), 200u);
  EXPECT_EQ(attacks[1].packets.count(), 200u);
}

TEST(OnlineDetector, SweepBoundsOpenSessions) {
  ShardedOnlineDetector detector({});
  // 10k sources, one packet each, spread over hours: the sweep must keep
  // the open-session table near the per-window population.
  for (int i = 0; i < 10000; ++i) {
    detector.consume(
        0, response_record(kT0 + i * util::kSecond,
                           0xdd000000 + static_cast<std::uint32_t>(i)));
  }
  // Only sources within the last timeout window can still be open.
  EXPECT_LE(detector.open_sessions(), 400u);
  detector.finish();
  EXPECT_EQ(detector.open_sessions(), 0u);
}

TEST(OnlineDetector, OpenSessionsGaugeCountsEveryShard) {
  // One thread per shard, as the live receiver runs them: the shared
  // online.open_sessions gauge must count every shard's open sessions,
  // not whichever shard wrote last.
  constexpr std::size_t kShards = 4;
  obs::MetricsRegistry metrics;
  ShardedOnlineDetectorConfig config;
  config.shards = kShards;
  config.detector.obs.metrics = &metrics;
  ShardedOnlineDetector detector(config);
  std::vector<std::thread> threads;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([&detector, shard] {
      // Sixteen of the 64 sources per shard, ten seconds of packets
      // each: every session stays open.
      for (int i = 0; i < 10; ++i) {
        for (std::size_t src = shard; src < 64; src += kShards) {
          const auto ip = 0xee000000 + static_cast<std::uint32_t>(src);
          detector.consume(shard,
                           response_record(kT0 + i * util::kSecond, ip));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(detector.open_sessions(), 64u);
  EXPECT_EQ(metrics.gauge("online.open_sessions").value(), 64);
  detector.finish();
  EXPECT_EQ(metrics.gauge("online.open_sessions").value(), 0);
}

TEST(OnlineDetector, MatchesBatchDetectorOnScenario) {
  // Run a small telescope scenario through both detectors: every batch
  // attack must be found online too (same thresholds, same sessions).
  const auto registry = asdb::AsRegistry::synthetic({}, 21);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, 21);
  auto scenario = telescope::ScenarioConfig::april2021(1, 99);
  scenario.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  scenario.tum.passes_per_day = 0;
  scenario.rwth.passes_per_day = 0;
  scenario.attacks.quic_attacks_per_day = 30;
  scenario.attacks.common_attacks_per_day = 0;
  telescope::TelescopeGenerator generator(scenario, registry, deployment);

  PipelineOptions options;
  options.window_start = scenario.start;
  options.days = scenario.days;
  ParallelPipeline pipeline(options, 2);

  ShardedOnlineDetector online({});
  std::vector<DetectedAttack> online_attacks;
  online.set_on_attack(
      [&](const DetectedAttack& a) { online_attacks.push_back(a); });

  Classifier classifier({});
  generator.generate([&](const net::RawPacket& packet) {
    pipeline.consume(packet);
    if (const auto record = classifier.classify(packet)) {
      online.consume(0, *record);
    }
  });
  online.finish();

  const auto batch = pipeline.analyze_attacks();
  ASSERT_GT(batch.quic_attacks.size(), 5u);
  EXPECT_EQ(online_attacks.size(), batch.quic_attacks.size());
  // Same victims, same packet counts.
  std::multiset<std::pair<std::uint32_t, std::uint64_t>> a, b;
  for (const auto& attack : batch.quic_attacks) {
    a.emplace(attack.victim.value(), attack.packets.count());
  }
  for (const auto& attack : online_attacks) {
    b.emplace(attack.victim.value(), attack.packets.count());
  }
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace quicsand::core
