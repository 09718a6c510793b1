// Metamorphic invariants of the analysis stack: transformations of the
// input stream with a known effect on the output — shift every timestamp
// by a constant, permute records that share a timestamp across sources —
// must change the results in exactly that way and nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/classifier.hpp"
#include "core/online_shards.hpp"
#include "core/parallel_pipeline.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

namespace quicsand::core {
namespace {

constexpr util::Timestamp kT0 = util::kApril2021Start;

std::vector<net::RawPacket> scenario_packets(
    telescope::ScenarioConfig& scenario) {
  const auto registry = asdb::AsRegistry::synthetic({}, 7);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, 7);
  telescope::TelescopeGenerator generator(scenario, registry, deployment);
  std::vector<net::RawPacket> packets;
  generator.generate(
      [&](const net::RawPacket& packet) { packets.push_back(packet); });
  return packets;
}

std::vector<DetectedAttack> sorted_attacks(std::vector<DetectedAttack> a) {
  for (auto& attack : a) attack.session_index = 0;
  std::sort(a.begin(), a.end(),
            [](const DetectedAttack& x, const DetectedAttack& y) {
              return std::tie(x.start, x.victim) < std::tie(y.start, y.victim);
            });
  return a;
}

TEST(Metamorphic, GlobalTimeShiftShiftsEverythingByDelta) {
  auto scenario = telescope::ScenarioConfig::april2021(1, 31);
  scenario.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  scenario.attacks.quic_attacks_per_day = 30;
  scenario.attacks.common_attacks_per_day = 100;
  const auto packets = scenario_packets(scenario);

  // Whole hours keep the hourly binning aligned; the extra day keeps the
  // shifted stream inside the analysis window.
  constexpr util::Duration kDelta = 5 * util::kHour;

  PipelineOptions base_options;
  base_options.window_start = scenario.start;
  base_options.days = scenario.days + 1;
  ParallelPipeline base(base_options, 2);
  for (const auto& packet : packets) base.consume(packet);

  PipelineOptions shifted_options = base_options;
  shifted_options.window_start = scenario.start + kDelta;
  ParallelPipeline shifted(shifted_options, 2);
  for (const auto& packet : packets) {
    net::RawPacket moved = packet;
    moved.timestamp += kDelta;
    shifted.consume(moved);
  }

  // Identical hourly histograms (the shift moved the window with the
  // data) and identical kept-record counts.
  EXPECT_EQ(base.hourly().research_quic, shifted.hourly().research_quic);
  EXPECT_EQ(base.hourly().other_quic, shifted.hourly().other_quic);
  EXPECT_EQ(base.hourly().quic_requests, shifted.hourly().quic_requests);
  EXPECT_EQ(base.hourly().quic_responses, shifted.hourly().quic_responses);
  ASSERT_EQ(base.stats().kept, shifted.stats().kept);

  // Every attack shifts by exactly kDelta; all other fields are equal.
  auto base_attacks = sorted_attacks(base.analyze_attacks().quic_attacks);
  auto shifted_attacks =
      sorted_attacks(shifted.analyze_attacks().quic_attacks);
  ASSERT_GT(base_attacks.size(), 3u);
  ASSERT_EQ(base_attacks.size(), shifted_attacks.size());
  for (std::size_t i = 0; i < base_attacks.size(); ++i) {
    auto expected = base_attacks[i];
    expected.start += kDelta;
    expected.end += kDelta;
    EXPECT_EQ(expected, shifted_attacks[i]) << "attack " << i;
  }
}

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

TEST(Metamorphic, EqualTimestampCrossSourcePermutation) {
  // Three sources emitting at the same instants: the relative order of
  // the tied records must not matter, online or offline, because all
  // session state is per source.
  const std::uint32_t sources[3] = {0xaa000001, 0xbb000002, 0xcc000003};
  std::vector<PacketRecord> forward, rotated;
  for (int i = 0; i < 240; ++i) {
    const auto t = kT0 + i * util::kSecond;
    for (int s = 0; s < 3; ++s) {
      forward.push_back(response_record(t, sources[s]));
      rotated.push_back(response_record(t, sources[(s + 2) % 3]));
    }
  }

  const auto run_online = [](const std::vector<PacketRecord>& records) {
    ShardedOnlineDetector detector({});
    std::vector<DetectedAttack> attacks;
    detector.set_on_attack(
        [&](const DetectedAttack& a) { attacks.push_back(a); });
    for (const auto& record : records) detector.consume(0, record);
    detector.finish();
    return sorted_attacks(std::move(attacks));
  };
  const auto forward_online = run_online(forward);
  EXPECT_EQ(forward_online.size(), 3u);
  EXPECT_EQ(forward_online, run_online(rotated));

  const DosThresholds thresholds;
  const auto offline = [&](const std::vector<PacketRecord>& records) {
    const auto sessions =
        build_sessions(records, 5 * util::kMinute, quic_response_filter());
    return sorted_attacks(detect_attacks(sessions, thresholds));
  };
  EXPECT_EQ(offline(forward), offline(rotated));
  EXPECT_EQ(offline(forward), forward_online);
}

TEST(Metamorphic, OnlineTimeShiftShiftsAttacksByDelta) {
  // The online detector carries no absolute-time state: shifting the
  // stream shifts alerts and attacks, and nothing else changes.
  constexpr util::Duration kDelta = (37 * util::kHour) + (123 * util::kSecond);
  const auto run = [](util::Duration delta) {
    ShardedOnlineDetector detector({});
    std::vector<DetectedAttack> attacks;
    detector.set_on_attack(
        [&](const DetectedAttack& a) { attacks.push_back(a); });
    for (int burst = 0; burst < 3; ++burst) {
      for (int i = 0; i < 150; ++i) {
        detector.consume(0, response_record(
            kT0 + delta + (burst * util::kHour) + (i * util::kSecond),
            0xdd000000 + static_cast<std::uint32_t>(burst)));
      }
    }
    detector.finish();
    return sorted_attacks(std::move(attacks));
  };
  const auto base = run(util::Duration{});
  auto shifted = run(kDelta);
  ASSERT_EQ(base.size(), 3u);
  ASSERT_EQ(shifted.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(shifted[i].start - base[i].start, kDelta);
    EXPECT_EQ(shifted[i].end - base[i].end, kDelta);
    EXPECT_EQ(shifted[i].packets, base[i].packets);
    EXPECT_EQ(shifted[i].peak_pps, base[i].peak_pps);
    EXPECT_EQ(shifted[i].victim, base[i].victim);
  }
}

}  // namespace
}  // namespace quicsand::core
