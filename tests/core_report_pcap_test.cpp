// Tests for the aggregated report and for pipeline/pcap equivalence:
// consuming a generated stream directly and replaying it through a pcap
// file must produce identical analysis results.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "capture_writers.hpp"
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
  const auto temp = std::filesystem::temp_directory_path();
  const auto path = (temp / "quicsand_equiv.pcap").string();

  // Direct path, writing every capture from the same generated stream:
  // classic pcap, and pcapng little-endian in µs, big-endian in ns, and
  // with an Ethernet interface (untagged, 802.1Q and 802.1ad+802.1Q).
  struct Pcapng {
    const char* name;
    std::string path;
    net::TestPcapngWriter writer;
    std::ofstream out;
  };
  Pcapng pcapngs[] = {
      {"pcapng, little-endian, us", temp / "quicsand_equiv_le.pcapng",
       net::TestPcapngWriter(), {}},
      {"pcapng, big-endian, ns", temp / "quicsand_equiv_be.pcapng",
       net::TestPcapngWriter(/*big_endian=*/true), {}},
      {"pcapng, Ethernet", temp / "quicsand_equiv_eth.pcapng",
       net::TestPcapngWriter(), {}},
  };
  auto& [le_micros, be_nanos, ethernet] = pcapngs;
  for (auto& pcapng : pcapngs) {
    pcapng.out.open(pcapng.path, std::ios::binary | std::ios::trunc);
    pcapng.writer.section_header();
  }
  le_micros.writer.interface_description(net::kLinktypeRaw);
  be_nanos.writer.interface_description(net::kLinktypeRaw, std::uint8_t{9});
  ethernet.writer.interface_description(net::kLinktypeEthernet);
  const std::uint16_t tags[] = {0x88a8, 0x8100};
  core::ParallelPipeline direct(pipeline_options(config), 2);
  {
    telescope::TelescopeGenerator generator(config, registry(), deployment());
    net::PcapWriter writer(path);
    std::size_t n = 0;
    generator.generate([&](const net::RawPacket& packet) {
      direct.consume(packet);
      writer.write(packet);
      const auto us = static_cast<std::uint64_t>(packet.timestamp.count());
      le_micros.writer.enhanced_packet(0, us, packet.data);
      be_nanos.writer.enhanced_packet(0, us * 1000, packet.data);
      const auto tagged = std::span<const std::uint16_t>(tags).last(n++ % 3);
      ethernet.writer.enhanced_packet(
          0, us, net::ethernet_frame(packet.data, tagged));
      for (auto& pcapng : pcapngs) pcapng.writer.flush(pcapng.out);
    });
  }
  for (auto& pcapng : pcapngs) pcapng.out.close();
  const auto a = direct.analyze_attacks();

  // Through each capture.
  auto check = [&](const char* name, const std::string& capture) {
    SCOPED_TRACE(name);
    core::ParallelPipeline via_pcap(pipeline_options(config), 3);
    {
      net::PcapReader reader(capture);
      reader.for_each(
          [&](net::PacketView packet) { via_pcap.consume(packet); });
    }
    std::filesystem::remove(capture);

    EXPECT_EQ(direct.stats().total, via_pcap.stats().total);
    EXPECT_EQ(direct.stats().research, via_pcap.stats().research);
    for (std::size_t c = 0; c < core::kTrafficClassCount; ++c) {
      EXPECT_EQ(direct.stats().by_class[c], via_pcap.stats().by_class[c]);
    }
    const auto b = via_pcap.analyze_attacks();
    ASSERT_EQ(a.quic_attacks.size(), b.quic_attacks.size());
    ASSERT_EQ(a.common_attacks.size(), b.common_attacks.size());
    for (std::size_t i = 0; i < a.quic_attacks.size(); ++i) {
      EXPECT_EQ(a.quic_attacks[i].victim, b.quic_attacks[i].victim);
      EXPECT_EQ(a.quic_attacks[i].start, b.quic_attacks[i].start);
      EXPECT_EQ(a.quic_attacks[i].packets, b.quic_attacks[i].packets);
    }
  };
  check("classic pcap", path);
  for (const auto& pcapng : pcapngs) check(pcapng.name, pcapng.path);
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
