// Tests for the aggregated report and for pipeline/pcap equivalence:
// consuming a generated stream directly and replaying it through a pcap
// file must produce identical analysis results.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/report.hpp"
#include "net/pcap.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

namespace quicsand {
namespace {

const asdb::AsRegistry& registry() {
  static const auto reg = asdb::AsRegistry::synthetic({}, 7);
  return reg;
}

const scanner::Deployment& deployment() {
  static const auto dep = scanner::Deployment::synthetic(registry(), {}, 7);
  return dep;
}

telescope::ScenarioConfig small_scenario() {
  auto config = telescope::ScenarioConfig::april2021(1, 99);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  config.tum.passes_per_day = 1.0;
  config.rwth.passes_per_day = 0;
  config.botnet.sessions_per_day = 150;
  config.attacks.quic_attacks_per_day = 25;
  config.attacks.common_attacks_per_day = 40;
  config.misconfig.sessions_per_day = 60;
  return config;
}

core::PipelineOptions pipeline_options(const telescope::ScenarioConfig& c) {
  core::PipelineOptions options;
  options.window_start = c.start;
  options.days = c.days;
  options.research_prefixes.push_back(
      registry().prefixes_of(asdb::AsRegistry::kTumScanner).front());
  return options;
}

TEST(ReportTest, BuildAndPrint) {
  const auto config = small_scenario();
  telescope::TelescopeGenerator generator(config, registry(), deployment());
  core::ParallelPipeline pipeline(pipeline_options(config), 2);
  generator.generate(
      [&](const net::RawPacket& packet) { pipeline.consume(packet); });
  const auto analysis = pipeline.analyze_attacks();
  const auto report =
      core::build_report(pipeline, analysis, registry(), deployment());

  EXPECT_GT(report.total_packets, 0u);
  EXPECT_GT(report.quic_packets, 0u);
  EXPECT_GT(report.research_packets, 0u);
  EXPECT_NEAR(report.request_share + report.response_share, 1.0, 1e-9);
  EXPECT_EQ(report.quic_attacks, analysis.quic_attacks.size());
  EXPECT_EQ(report.common_attacks, analysis.common_attacks.size());
  EXPECT_NEAR(report.concurrent_share + report.sequential_share +
                  report.isolated_share,
              report.quic_attacks == 0 ? 0.0 : 1.0, 1e-9);
  EXPECT_GT(report.victims, 0u);
  EXPECT_GT(report.known_server_share, 0.8);
  EXPECT_FALSE(report.top_victim_ases.empty());
  EXPECT_LE(report.top_victim_ases.size(), 5u);
  // Top list is sorted descending by attack count.
  for (std::size_t i = 1; i < report.top_victim_ases.size(); ++i) {
    EXPECT_GE(report.top_victim_ases[i - 1].second,
              report.top_victim_ases[i].second);
  }

  std::ostringstream os;
  core::print_report(os, report);
  const auto text = os.str();
  EXPECT_NE(text.find("QUICsand analysis report"), std::string::npos);
  EXPECT_NE(text.find("QUIC floods"), std::string::npos);
  EXPECT_NE(text.find("top victim ASes"), std::string::npos);
}

TEST(PcapEquivalence, PcapRoundTripMatchesDirectConsumption) {
  const auto config = small_scenario();
  const auto path =
      (std::filesystem::temp_directory_path() / "quicsand_equiv.pcap")
          .string();

  // Direct path.
  core::ParallelPipeline direct(pipeline_options(config), 2);
  {
    telescope::TelescopeGenerator generator(config, registry(), deployment());
    net::PcapWriter writer(path);
    generator.generate([&](const net::RawPacket& packet) {
      direct.consume(packet);
      writer.write(packet);
    });
  }
  // Through the pcap file.
  core::ParallelPipeline via_pcap(pipeline_options(config), 3);
  {
    net::PcapReader reader(path);
    reader.for_each(
        [&](const net::RawPacket& packet) { via_pcap.consume(packet); });
  }
  std::filesystem::remove(path);

  EXPECT_EQ(direct.stats().total, via_pcap.stats().total);
  EXPECT_EQ(direct.stats().research, via_pcap.stats().research);
  for (std::size_t c = 0; c < core::kTrafficClassCount; ++c) {
    EXPECT_EQ(direct.stats().by_class[c], via_pcap.stats().by_class[c]);
  }
  const auto a = direct.analyze_attacks();
  const auto b = via_pcap.analyze_attacks();
  ASSERT_EQ(a.quic_attacks.size(), b.quic_attacks.size());
  ASSERT_EQ(a.common_attacks.size(), b.common_attacks.size());
  for (std::size_t i = 0; i < a.quic_attacks.size(); ++i) {
    EXPECT_EQ(a.quic_attacks[i].victim, b.quic_attacks[i].victim);
    EXPECT_EQ(a.quic_attacks[i].start, b.quic_attacks[i].start);
    EXPECT_EQ(a.quic_attacks[i].packets, b.quic_attacks[i].packets);
  }
}

TEST(ReportTest, EmptyPipelineProducesEmptyReport) {
  core::PipelineOptions options;
  options.days = 1;
  core::ParallelPipeline pipeline(options, 2);
  const auto analysis = pipeline.analyze_attacks();
  const auto report =
      core::build_report(pipeline, analysis, registry(), deployment());
  EXPECT_EQ(report.total_packets, 0u);
  EXPECT_EQ(report.quic_attacks, 0u);
  EXPECT_EQ(report.victims, 0u);
  std::ostringstream os;
  EXPECT_NO_THROW(core::print_report(os, report));
}

}  // namespace
}  // namespace quicsand
