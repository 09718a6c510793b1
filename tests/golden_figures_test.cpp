// Golden figure outputs: the exact quantities behind fig02-fig13 for one
// pinned scenario (seed 4242, 2 days, /20 telescope). Any change in the
// generator, classifier, sessionizer, detector or correlator shows up
// here as a diff — deliberate changes update the constants.
//
// Registered under the `golden` ctest label (not tier1): pins are exact
// by design, so they gate refactors, not the regular suite. The test
// prints every quantity as "GOLDEN <name> <value>"; to regenerate after
// an intended behavior change, run the binary and copy the values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/correlate.hpp"
#include "core/online_shards.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/victims.hpp"
#include "net/record_batch.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

namespace quicsand::core {
namespace {

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

void print_golden(const char* name, double value) {
  std::printf("GOLDEN %s %.17g\n", name, value);
}
void print_golden(const char* name, std::uint64_t value) {
  std::printf("GOLDEN %s %llu\n", name,
              static_cast<unsigned long long>(value));
}

class GoldenFigures : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ = new asdb::AsRegistry(asdb::AsRegistry::synthetic({}, 4242));
    deployment_ = new scanner::Deployment(
        scanner::Deployment::synthetic(*registry_, {}, 4242));
    auto scenario = telescope::ScenarioConfig::april2021(2, 4242);
    scenario.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
    scenario.attacks.quic_attacks_per_day = 40;
    scenario.attacks.common_attacks_per_day = 150;
    scenario.botnet.sessions_per_day = 300;
    scenario.misconfig.sessions_per_day = 200;
    telescope::TelescopeGenerator generator(scenario, *registry_,
                                            *deployment_);

    PipelineOptions options;
    options.window_start = scenario.start;
    options.days = scenario.days;
    pipeline_ = new ParallelPipeline(options, 4);
    online_ = new ShardedOnlineDetector({});
    online_attacks_ = new std::vector<DetectedAttack>();
    online_->set_on_attack([](const DetectedAttack& a) {
      online_attacks_->push_back(a);
    });
    // The figure stream is produced and ingested through the batched
    // path the benches use, so every pin below also pins batched
    // generation and batch hand-off. Per-record next() and consume() stay
    // covered by tests/telescope_batch_diff_test.cpp, which proves them
    // identical to this stream.
    Classifier classifier({});
    auto batch = pipeline_->acquire_batch();
    while (generator.next_batch(batch) > 0) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto view = batch.view(i);
        if (const auto record =
                classifier.classify(view.timestamp, view.data)) {
          online_->consume(0, *record);
        }
      }
      pipeline_->consume_batch(std::move(batch));
      batch = pipeline_->acquire_batch();
    }
    online_->finish();
    analysis_ = new AttackAnalysis(pipeline_->analyze_attacks());
  }

  static void TearDownTestSuite() {
    delete analysis_;
    delete online_attacks_;
    delete online_;
    delete pipeline_;
    delete deployment_;
    delete registry_;
  }

  static asdb::AsRegistry* registry_;
  static scanner::Deployment* deployment_;
  static ParallelPipeline* pipeline_;
  static ShardedOnlineDetector* online_;
  static std::vector<DetectedAttack>* online_attacks_;
  static AttackAnalysis* analysis_;
};

asdb::AsRegistry* GoldenFigures::registry_ = nullptr;
scanner::Deployment* GoldenFigures::deployment_ = nullptr;
ParallelPipeline* GoldenFigures::pipeline_ = nullptr;
ShardedOnlineDetector* GoldenFigures::online_ = nullptr;
std::vector<DetectedAttack>* GoldenFigures::online_attacks_ = nullptr;
AttackAnalysis* GoldenFigures::analysis_ = nullptr;

TEST_F(GoldenFigures, Fig02Fig03HourlyTotals) {
  const auto& hourly = pipeline_->hourly();
  print_golden("research_quic", sum(hourly.research_quic));
  print_golden("other_quic", sum(hourly.other_quic));
  print_golden("quic_requests", sum(hourly.quic_requests));
  print_golden("quic_responses", sum(hourly.quic_responses));
  EXPECT_EQ(sum(hourly.research_quic), 0u);
  EXPECT_EQ(sum(hourly.other_quic), 54581u);
  EXPECT_EQ(sum(hourly.quic_requests), 6458u);
  EXPECT_EQ(sum(hourly.quic_responses), 48123u);
}

TEST_F(GoldenFigures, Fig04TimeoutKnee) {
  const util::Duration timeouts[] = {util::kMinute, 5 * util::kMinute,
                                     util::kHour};
  const auto sweep = pipeline_->session_timeout_sweep(timeouts);
  ASSERT_EQ(sweep.size(), 3u);
  print_golden("sessions_1min", sweep[0].second);
  print_golden("sessions_5min", sweep[1].second);
  print_golden("sessions_1h", sweep[2].second);
  EXPECT_EQ(sweep[0].second, 2155u);
  EXPECT_EQ(sweep[1].second, 1073u);
  EXPECT_EQ(sweep[2].second, 1068u);
}

TEST_F(GoldenFigures, Fig06Fig09Victims) {
  const auto report = analyze_victims(analysis_->quic_attacks, *registry_,
                                      *deployment_);
  print_golden("quic_attacks", std::uint64_t{analysis_->quic_attacks.size()});
  print_golden("victims", std::uint64_t{report.victims.size()});
  const auto max_attacks =
      report.victims.empty() ? 0u : report.victims.front().attack_count;
  print_golden("max_attacks_per_victim", std::uint64_t{max_attacks});
  print_golden("known_server_share", report.known_server_share());
  EXPECT_EQ(analysis_->quic_attacks.size(), 61u);
  EXPECT_EQ(report.victims.size(), 36u);
  EXPECT_EQ(max_attacks, 4u);
  EXPECT_DOUBLE_EQ(report.known_server_share(), 0.98360655737704916);
}

TEST_F(GoldenFigures, Fig07DurationIntensityMedians) {
  std::vector<double> durations, peaks;
  for (const auto& attack : analysis_->quic_attacks) {
    durations.push_back(util::to_seconds(attack.duration()));
    peaks.push_back(attack.peak_pps.count());
  }
  ASSERT_FALSE(durations.empty());
  std::sort(durations.begin(), durations.end());
  std::sort(peaks.begin(), peaks.end());
  const auto median = [](const std::vector<double>& v) {
    return v[v.size() / 2];
  };
  print_golden("median_duration_s", median(durations));
  print_golden("median_peak_pps", median(peaks));
  EXPECT_DOUBLE_EQ(median(durations), 346.44087100000002);
  EXPECT_DOUBLE_EQ(median(peaks), 1.2333333333333334);
}

TEST_F(GoldenFigures, Fig08Fig12Fig13MultiVector) {
  const auto report = correlate_attacks(analysis_->quic_attacks,
                                        analysis_->common_attacks);
  print_golden("concurrent", report.concurrent);
  print_golden("sequential", report.sequential);
  print_golden("isolated", report.isolated);
  print_golden("common_attacks",
               std::uint64_t{analysis_->common_attacks.size()});
  EXPECT_EQ(report.concurrent, 31u);
  EXPECT_EQ(report.sequential, 27u);
  EXPECT_EQ(report.isolated, 3u);
  EXPECT_EQ(analysis_->common_attacks.size(), 284u);
}

TEST_F(GoldenFigures, Fig09ProviderProfiles) {
  // The per-attack distinct counts come from the response sessions'
  // SCID, peer and peer-port sets and version map; nothing else pins
  // them.
  const asdb::Asn providers[] = {asdb::AsRegistry::kGoogle,
                                 asdb::AsRegistry::kFacebook};
  const auto profiles =
      profile_providers(analysis_->quic_attacks, analysis_->response_sessions,
                        *registry_, providers);
  ASSERT_EQ(profiles.size(), 2u);
  const char* names[] = {"google", "facebook"};
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const auto& profile = profiles[p];
    const std::string name = names[p];
    print_golden((name + "_attacks").c_str(), profile.attacks);
    if (profile.attacks == 0) continue;
    print_golden((name + "_median_packets").c_str(),
                 profile.packets_per_attack.median());
    print_golden((name + "_median_client_ips").c_str(),
                 profile.client_ips_per_attack.median());
    print_golden((name + "_median_client_ports").c_str(),
                 profile.client_ports_per_attack.median());
    print_golden((name + "_median_scids").c_str(),
                 profile.scids_per_attack.median());
    for (const auto& [version, count] : profile.version_counts) {
      char key[64];
      std::snprintf(key, sizeof key, "%s_version_%08x", name.c_str(),
                    version);
      print_golden(key, count);
    }
  }
  const auto& google = profiles[0];
  EXPECT_EQ(google.attacks, 32u);
  ASSERT_FALSE(google.packets_per_attack.empty());
  EXPECT_DOUBLE_EQ(google.packets_per_attack.median(), 274.5);
  EXPECT_DOUBLE_EQ(google.client_ips_per_attack.median(), 8.0);
  EXPECT_DOUBLE_EQ(google.client_ports_per_attack.median(), 70.5);
  EXPECT_DOUBLE_EQ(google.scids_per_attack.median(), 70.5);
  EXPECT_EQ(google.version_counts,
            (std::map<std::uint32_t, std::uint64_t>{{0x00000001u, 1565u},
                                                    {0xff00001du, 8034u}}));
  const auto& facebook = profiles[1];
  EXPECT_EQ(facebook.attacks, 13u);
  ASSERT_FALSE(facebook.packets_per_attack.empty());
  EXPECT_DOUBLE_EQ(facebook.packets_per_attack.median(), 475.0);
  EXPECT_DOUBLE_EQ(facebook.client_ips_per_attack.median(), 7.0);
  EXPECT_DOUBLE_EQ(facebook.client_ports_per_attack.median(), 74.0);
  EXPECT_DOUBLE_EQ(facebook.scids_per_attack.median(), 74.0);
  EXPECT_EQ(facebook.version_counts,
            (std::map<std::uint32_t, std::uint64_t>{{0xfaceb002u, 16322u}}));
}

TEST_F(GoldenFigures, Fig10ThresholdSweep) {
  const DosThresholds base;
  const double weights[] = {0.5, 1.0, 2.0};
  std::uint64_t counts[3] = {};
  for (int i = 0; i < 3; ++i) {
    counts[i] = pipeline_->analyze_attacks(base.weighted(weights[i]))
                    .quic_attacks.size();
  }
  print_golden("attacks_w05", counts[0]);
  print_golden("attacks_w10", counts[1]);
  print_golden("attacks_w20", counts[2]);
  EXPECT_EQ(counts[0], 77u);
  EXPECT_EQ(counts[1], 61u);
  EXPECT_EQ(counts[2], 39u);
  // Monotonic: stricter thresholds admit fewer sessions.
  EXPECT_GE(counts[0], counts[1]);
  EXPECT_GE(counts[1], counts[2]);
}

TEST_F(GoldenFigures, OnlineDetectorGoldenCounters) {
  print_golden("online_alerts", online_->alerts_fired());
  print_golden("online_attacks", online_->attacks_closed());
  EXPECT_EQ(online_->alerts_fired(), 61u);
  EXPECT_EQ(online_->attacks_closed(), 61u);
  EXPECT_EQ(online_attacks_->size(), analysis_->quic_attacks.size());
}

}  // namespace
}  // namespace quicsand::core
