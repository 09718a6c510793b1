// Differential oracle: the streaming ShardedOnlineDetector and the offline
// ParallelPipeline must agree bit-for-bit on the detected attack set —
// same victims, same boundaries, same packet counts and peak rates —
// across generator seeds, and the online path must be invariant to
// partitioning the record stream by source (the streaming analogue of the
// batch shard-count invariance).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/classifier.hpp"
#include "core/online_shards.hpp"
#include "core/parallel_pipeline.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "telescope/scoring.hpp"
#include "util/sharded_counter.hpp"

namespace quicsand::core {
namespace {

telescope::ScenarioConfig small_scenario(std::uint64_t seed) {
  auto scenario = telescope::ScenarioConfig::april2021(1, seed);
  scenario.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  scenario.attacks.quic_attacks_per_day = 40;
  scenario.attacks.common_attacks_per_day = 120;
  scenario.botnet.sessions_per_day = 200;
  scenario.misconfig.sessions_per_day = 150;
  return scenario;
}

/// Attack sets from hash-map eviction (online) and session order
/// (offline) differ in ordering and session_index; normalize both away
/// before comparing every remaining field exactly.
std::vector<DetectedAttack> normalized(std::vector<DetectedAttack> attacks) {
  for (auto& attack : attacks) attack.session_index = 0;
  std::sort(attacks.begin(), attacks.end(),
            [](const DetectedAttack& a, const DetectedAttack& b) {
              return std::tie(a.start, a.victim, a.end, a.packets) <
                     std::tie(b.start, b.victim, b.end, b.packets);
            });
  return attacks;
}

struct ScenarioRun {
  std::vector<DetectedAttack> offline;
  std::vector<DetectedAttack> online;
  std::vector<PacketRecord> records;  ///< classified, analysis-kept
  double mean_alert_latency_s = 0;
  std::uint64_t alerts = 0;
  telescope::GroundTruth truth;
};

ScenarioRun run_scenario(std::uint64_t seed) {
  const auto registry = asdb::AsRegistry::synthetic({}, seed);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, seed);
  const auto scenario = small_scenario(seed);
  telescope::TelescopeGenerator generator(scenario, registry, deployment);

  PipelineOptions options;
  options.window_start = scenario.start;
  options.days = scenario.days;
  ParallelPipeline pipeline(options, 4);

  ShardedOnlineDetector online({});
  ScenarioRun run;
  online.set_on_attack(
      [&](const DetectedAttack& a) { run.online.push_back(a); });

  Classifier classifier({});
  generator.generate([&](const net::RawPacket& packet) {
    pipeline.consume(packet);
    if (const auto record = classifier.classify(packet)) {
      online.consume(0, *record);
      if (keep_for_analysis(*record)) run.records.push_back(*record);
    }
  });
  online.finish();

  run.offline = pipeline.analyze_attacks().quic_attacks;
  run.mean_alert_latency_s = online.mean_alert_latency_s();
  run.alerts = online.alerts_fired();
  run.truth = generator.ground_truth();
  return run;
}

TEST(DiffOnlineOffline, BitIdenticalAttackSetsAcrossSeeds) {
  for (const std::uint64_t seed : {11u, 23u, 37u, 41u, 59u}) {
    SCOPED_TRACE(seed);
    const auto run = run_scenario(seed);
    ASSERT_GT(run.offline.size(), 5u) << "scenario produced too few attacks";
    EXPECT_EQ(normalized(run.offline), normalized(run.online));
  }
}

TEST(DiffOnlineOffline, AlertLatencyIsSane) {
  const auto run = run_scenario(23);
  ASSERT_GT(run.alerts, 0u);
  // An alert cannot fire before the duration threshold is crossed, and
  // the mean must stay far below the window length (early warning).
  const DosThresholds thresholds;
  EXPECT_GE(run.mean_alert_latency_s, thresholds.min_duration_s);
  EXPECT_LT(run.mean_alert_latency_s, util::to_seconds(util::kDay) / 4);
  // Every closed online attack was alerted first.
  EXPECT_GE(run.alerts, run.online.size());
}

TEST(DiffOnlineOffline, OnlinePartitionInvariance) {
  // Partitioning the stream by source across k detector shards must
  // reproduce the single-shard attack set exactly: sessions are keyed
  // per source, so cross-source interleaving carries no state.
  const auto run = run_scenario(37);
  const auto expected = normalized(run.online);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(shards);
    ShardedOnlineDetectorConfig config;
    config.shards = shards;
    ShardedOnlineDetector detector(config);
    for (const auto& record : run.records) {
      detector.consume(util::shard_of(record.src.value(), shards), record);
    }
    EXPECT_EQ(normalized(detector.finish()), expected);
  }
}

TEST(DiffOnlineOffline, GroundTruthPrecisionRecallFloors) {
  for (const std::uint64_t seed : {11u, 59u}) {
    SCOPED_TRACE(seed);
    const auto run = run_scenario(seed);
    const auto planned = run.truth.quic_attacks();

    // Precision: every detection must trace back to a planned attack.
    const auto all = telescope::score_detections(run.offline, planned);
    EXPECT_GE(all.precision(), 0.95);

    // Recall floor over the comfortably-detectable planned attacks.
    const DosThresholds thresholds;
    std::vector<const telescope::PlannedAttack*> strong;
    for (const auto* plan : planned) {
      if (telescope::comfortably_detectable(*plan, thresholds)) {
        strong.push_back(plan);
      }
    }
    ASSERT_GT(strong.size(), 3u);
    const auto strong_score =
        telescope::score_detections(run.offline, strong);
    EXPECT_GE(strong_score.recall(), 0.9);
  }
}

}  // namespace
}  // namespace quicsand::core
