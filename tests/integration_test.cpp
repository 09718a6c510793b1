// End-to-end validation: generate a telescope scenario, run the full
// QUICsand pipeline on the raw packets, and score the detections against
// the generator's ground truth. This is the test the paper could not run
// — we know exactly which attacks are in the trace.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "core/parallel_pipeline.hpp"
#include "core/victims.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

namespace quicsand {
namespace {

using core::ParallelPipeline;
using core::PipelineOptions;
using telescope::AttackProtocol;
using telescope::ScenarioConfig;
using telescope::TelescopeGenerator;

const asdb::AsRegistry& registry() {
  static const auto reg = asdb::AsRegistry::synthetic({}, 404);
  return reg;
}

const scanner::Deployment& deployment() {
  static const auto dep =
      scanner::Deployment::synthetic(registry(), {}, 404);
  return dep;
}

ScenarioConfig scenario() {
  auto config = ScenarioConfig::april2021(2, 777);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 16};
  config.tum.passes_per_day = 0.5;
  config.rwth.passes_per_day = 0.5;
  config.tum.pass_duration = 8 * util::kHour;
  config.rwth.pass_duration = 8 * util::kHour;
  config.botnet.sessions_per_day = 300;
  config.attacks.quic_attacks_per_day = 40;
  config.attacks.common_attacks_per_day = 80;
  config.misconfig.sessions_per_day = 200;
  return config;
}

PipelineOptions options(const ScenarioConfig& config) {
  PipelineOptions opts;
  opts.window_start = config.start;
  opts.days = config.days;
  opts.research_prefixes.push_back(
      registry().prefixes_of(config.tum.asn).front());
  opts.research_prefixes.push_back(
      registry().prefixes_of(config.rwth.asn).front());
  return opts;
}

/// Shared fixture: the scenario is generated and analyzed once.
class IntegrationTest : public ::testing::Test {
 protected:
  struct State {
    ScenarioConfig config = scenario();
    telescope::GroundTruth truth;
    std::unique_ptr<ParallelPipeline> pipeline;
    core::AttackAnalysis analysis;
  };

  static State& state() {
    static State s = [] {
      State st;
      TelescopeGenerator generator(st.config, registry(), deployment());
      st.pipeline =
          std::make_unique<ParallelPipeline>(options(st.config), 4);
      generator.generate(
          [&](const net::RawPacket& packet) { st.pipeline->consume(packet); });
      st.truth = generator.ground_truth();
      st.analysis = st.pipeline->analyze_attacks();
      return st;
    }();
    return s;
  }
};

TEST_F(IntegrationTest, ResearchScannersDominateQuicTraffic) {
  const auto& stats = state().pipeline->stats();
  const auto quic_total = stats.of(core::TrafficClass::kQuicRequest) +
                          stats.of(core::TrafficClass::kQuicResponse);
  ASSERT_GT(quic_total, 0u);
  const double research_share =
      static_cast<double>(stats.research) / static_cast<double>(quic_total);
  // Fig. 2: the research bias is extreme (98.5% at a /9 telescope). The
  // test telescope is a /16, which shrinks the research probe count by
  // 128x while the event traffic stays fixed, so the share drops — it
  // must still be the clear majority.
  EXPECT_GT(research_share, 0.60);
  EXPECT_EQ(stats.undecodable, 0u);
}

TEST_F(IntegrationTest, SanitizedSplitIsMostlyResponses) {
  const auto& stats = state().pipeline->stats();
  const auto requests = stats.sanitized_requests();
  const auto responses = stats.sanitized_responses();
  // After research removal all requests left are botnet scans; responses
  // (backscatter + misconfig) dominate, as in §5.1 (15% / 85%).
  const double response_share =
      static_cast<double>(responses) /
      static_cast<double>(stats.sanitized_quic());
  EXPECT_GT(response_share, 0.6);
  EXPECT_GT(requests, 0u);
}

TEST_F(IntegrationTest, TimeoutSweepIsMonotoneWithKnee) {
  std::vector<util::Duration> timeouts;
  for (int m = 1; m <= 60; m *= 2) timeouts.push_back(m * util::kMinute);
  const auto sweep = state().pipeline->session_timeout_sweep(timeouts);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].second, sweep[i - 1].second);
  }
  // The curve flattens: the drop from 1->2 min exceeds the 32->64 drop.
  const auto d_head = sweep[0].second - sweep[1].second;
  const auto d_tail = sweep[sweep.size() - 2].second - sweep.back().second;
  EXPECT_GE(d_head, d_tail);
}

TEST_F(IntegrationTest, DetectorRecallOnPlannedQuicAttacks) {
  const auto& analysis = state().analysis;
  // Ground truth: planned QUIC attacks that should be detectable
  // (generous enough to pass the Moore thresholds).
  std::uint64_t detectable = 0, recovered = 0;
  for (const auto* attack : state().truth.quic_attacks()) {
    const bool strong = attack->peak_pps > 1.0 &&
                        attack->duration > 3 * util::kMinute;
    if (!strong) continue;
    ++detectable;
    for (const auto& detected : analysis.quic_attacks) {
      if (detected.victim == attack->victim &&
          detected.start < attack->start + attack->duration &&
          detected.end > attack->start) {
        ++recovered;
        break;
      }
    }
  }
  ASSERT_GT(detectable, 5u);
  EXPECT_GT(static_cast<double>(recovered) /
                static_cast<double>(detectable),
            0.9);
}

TEST_F(IntegrationTest, DetectorPrecisionAgainstGroundTruth) {
  const auto& analysis = state().analysis;
  // Every detected QUIC attack should trace back to a planned attack on
  // the same victim (misconfig noise must not trigger detections).
  std::unordered_set<std::uint32_t> planned_victims;
  for (const auto* attack : state().truth.quic_attacks()) {
    planned_victims.insert(attack->victim.value());
  }
  ASSERT_FALSE(analysis.quic_attacks.empty());
  std::uint64_t matched = 0;
  for (const auto& detected : analysis.quic_attacks) {
    if (planned_victims.contains(detected.victim.value())) ++matched;
  }
  EXPECT_EQ(matched, analysis.quic_attacks.size());
}

TEST_F(IntegrationTest, CommonAttacksDetectedToo) {
  EXPECT_GT(state().analysis.common_attacks.size(), 30u);
  // QUIC floods are shorter than TCP/ICMP floods (Fig. 7).
  std::vector<double> quic_durations, common_durations;
  for (const auto& a : state().analysis.quic_attacks) {
    quic_durations.push_back(util::to_seconds(a.duration()));
  }
  for (const auto& a : state().analysis.common_attacks) {
    common_durations.push_back(util::to_seconds(a.duration()));
  }
  ASSERT_FALSE(quic_durations.empty());
  ASSERT_FALSE(common_durations.empty());
  EXPECT_LT(util::median_of(quic_durations),
            util::median_of(common_durations));
}

TEST_F(IntegrationTest, MultiVectorSharesRoughlyMatchPlan) {
  const auto& analysis = state().analysis;
  const auto report = core::correlate_attacks(analysis.quic_attacks,
                                              analysis.common_attacks);
  ASSERT_GT(report.total(), 20u);
  // Half-ish concurrent (paper: 51%), sizable sequential, small isolated.
  EXPECT_GT(report.share(core::Relation::kConcurrent), 0.30);
  EXPECT_GT(report.share(core::Relation::kSequential), 0.15);
  EXPECT_LT(report.share(core::Relation::kIsolated), 0.35);
}

TEST_F(IntegrationTest, VictimsAreKnownQuicServers) {
  const auto report = core::analyze_victims(state().analysis.quic_attacks,
                                            registry(), deployment());
  ASSERT_GT(report.total_attacks, 20u);
  // Paper: 98% of attacks target known QUIC servers.
  EXPECT_GT(report.known_server_share(), 0.9);
  // Google + Facebook take the bulk of attacks (83% in the paper).
  const auto google = report.attacks_by_asn.count(asdb::AsRegistry::kGoogle)
                          ? report.attacks_by_asn.at(asdb::AsRegistry::kGoogle)
                          : 0;
  const auto facebook =
      report.attacks_by_asn.count(asdb::AsRegistry::kFacebook)
          ? report.attacks_by_asn.at(asdb::AsRegistry::kFacebook)
          : 0;
  EXPECT_GT(static_cast<double>(google + facebook) /
                static_cast<double>(report.total_attacks),
            0.6);
}

TEST_F(IntegrationTest, BackscatterCompositionMatchesSection6) {
  // §6: suspect events average ~31% Initial / ~57% Handshake messages.
  std::uint64_t initial = 0, handshake = 0, total = 0;
  for (const auto& attack : state().analysis.quic_attacks) {
    const auto& session =
        state().analysis.response_sessions[attack.session_index];
    initial += session.kind_counts[static_cast<std::size_t>(
        quic::QuicPacketKind::kInitial)];
    handshake += session.kind_counts[static_cast<std::size_t>(
        quic::QuicPacketKind::kHandshake)];
    for (const auto count : session.kind_counts) total += count;
  }
  ASSERT_GT(total, 1000u);
  const double initial_share = static_cast<double>(initial) / total;
  const double handshake_share = static_cast<double>(handshake) / total;
  EXPECT_NEAR(initial_share, 0.31, 0.10);
  EXPECT_NEAR(handshake_share, 0.57, 0.12);
}

TEST_F(IntegrationTest, NoRetryMessagesInBackscatter) {
  // §6: the telescope sees no RETRY packets at all. Every sanitized
  // QUIC record lands in one request or response session.
  constexpr auto kRetry =
      static_cast<std::size_t>(quic::QuicPacketKind::kRetry);
  std::uint64_t retries = 0;
  std::uint64_t handshakes = 0;
  for (const auto& session : state().pipeline->request_sessions(
           state().pipeline->options().session_timeout)) {
    retries += session.kind_counts[kRetry];
  }
  for (const auto& session : state().analysis.response_sessions) {
    retries += session.kind_counts[kRetry];
    handshakes += session.kind_counts[static_cast<std::size_t>(
        quic::QuicPacketKind::kHandshake)];
  }
  EXPECT_GT(handshakes, 0u);
  EXPECT_EQ(retries, 0u);
}

TEST_F(IntegrationTest, ProviderProfilesShowScidBehaviour) {
  const asdb::Asn providers[] = {asdb::AsRegistry::kGoogle,
                                 asdb::AsRegistry::kFacebook};
  const auto profiles = core::profile_providers(
      state().analysis.quic_attacks, state().analysis.response_sessions,
      registry(), providers);
  ASSERT_EQ(profiles.size(), 2u);
  const auto& google = profiles[0];
  const auto& facebook = profiles[1];
  ASSERT_GT(google.attacks, 5u);
  ASSERT_GT(facebook.attacks, 3u);
  // Port randomization drives SCIDs: each attack shows many more
  // distinct ports/SCIDs than distinct client IPs.
  EXPECT_GT(google.scids_per_attack.mean(),
            google.client_ips_per_attack.mean());
  EXPECT_GT(facebook.client_ports_per_attack.mean(),
            facebook.client_ips_per_attack.mean());
  // Version mixes: Facebook backscatter is dominated by mvfst-draft-27,
  // Google by draft-29 (Fig. 9).
  EXPECT_GT(facebook.version_share(0xfaceb002), 0.7);
  EXPECT_GT(google.version_share(0xff00001d), 0.4);
}

TEST_F(IntegrationTest, GreyNoiseCorrelationFindsNoBenignRequesters) {
  // Rebuild the generator to fetch its intel db (deterministic seed).
  TelescopeGenerator generator(state().config, registry(), deployment());
  const auto db = generator.make_intel_db();
  const auto sessions = state().pipeline->request_sessions(
      5 * util::kMinute);
  std::vector<net::Ipv4Address> sources;
  sources.reserve(sessions.size());
  for (const auto& session : sessions) sources.push_back(session.source);
  const auto summary = db.summarize(sources);
  EXPECT_EQ(summary.benign, 0u);  // research scanners were removed
  EXPECT_GT(summary.malicious, 0u);
  EXPECT_NEAR(summary.malicious_share(), 0.023, 0.025);
}

}  // namespace
}  // namespace quicsand
