#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "net/headers.hpp"
#include "quic/dissector.hpp"
#include "scanner/deployment.hpp"
#include "telescope/attack_schedule.hpp"
#include "telescope/generator.hpp"

namespace quicsand::telescope {
namespace {

const asdb::AsRegistry& registry() {
  static const auto reg = asdb::AsRegistry::synthetic({}, 42);
  return reg;
}

const scanner::Deployment& deployment() {
  static const auto dep = scanner::Deployment::synthetic(registry(), {}, 42);
  return dep;
}

/// Small, fast scenario for tests: a /20 "telescope" and one day.
ScenarioConfig test_scenario(std::uint64_t seed = 5) {
  auto config = ScenarioConfig::april2021(1, seed);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  config.tum.passes_per_day = 1.0;
  config.rwth.passes_per_day = 1.0;
  config.tum.pass_duration = 6 * util::kHour;
  config.rwth.pass_duration = 6 * util::kHour;
  config.botnet.sessions_per_day = 120;
  config.attacks.quic_attacks_per_day = 30;
  config.attacks.common_attacks_per_day = 60;
  config.misconfig.sessions_per_day = 60;
  return config;
}

TEST(Scenario, April2021Defaults) {
  const auto config = ScenarioConfig::april2021();
  EXPECT_EQ(config.days, 30);
  EXPECT_EQ(config.telescope.length(), 9);
  EXPECT_EQ(config.end() - config.start, 30 * util::kDay);
  EXPECT_NEAR(config.tum.passes_per_day * 30, 5.4, 0.01);
  EXPECT_THROW(ScenarioConfig::april2021(0), std::invalid_argument);
}

TEST(AttackSchedule, CountsAndOrdering) {
  auto config = test_scenario();
  util::Rng rng(7);
  const auto attacks = plan_attacks(config, registry(), deployment(), rng);
  std::uint64_t quic = 0, common = 0;
  util::Timestamp last{};
  for (const auto& attack : attacks) {
    EXPECT_GE(attack.start, last);
    last = attack.start;
    EXPECT_GE(attack.start, config.start);
    EXPECT_LT(attack.start, config.end());
    EXPECT_GT(attack.duration, util::Duration{});
    EXPECT_GT(attack.peak_pps, 0);
    if (attack.protocol == AttackProtocol::kQuic) {
      ++quic;
    } else {
      ++common;
    }
  }
  EXPECT_EQ(quic, 30u);
  EXPECT_GE(common, 60u);  // background + paired attacks
}

TEST(AttackSchedule, RelationSharesMatchMix) {
  auto config = test_scenario();
  config.attacks.quic_attacks_per_day = 1500;  // large sample
  config.attacks.common_attacks_per_day = 0;
  util::Rng rng(11);
  const auto attacks = plan_attacks(config, registry(), deployment(), rng);
  std::map<PlannedRelation, std::uint64_t> counts;
  std::uint64_t quic = 0;
  for (const auto& attack : attacks) {
    if (attack.protocol != AttackProtocol::kQuic) continue;
    ++quic;
    ++counts[attack.relation];
  }
  ASSERT_GT(quic, 1000u);
  const auto share = [&](PlannedRelation r) {
    return static_cast<double>(counts[r]) / static_cast<double>(quic);
  };
  EXPECT_NEAR(share(PlannedRelation::kConcurrent), 0.51, 0.08);
  EXPECT_NEAR(share(PlannedRelation::kSequential), 0.40, 0.08);
  EXPECT_NEAR(share(PlannedRelation::kIsolated), 0.09, 0.06);
}

TEST(AttackSchedule, VictimMixFavoursGoogleAndFacebook) {
  auto config = test_scenario();
  // Per-victim attack counts are heavy-tailed, so the attack-weighted
  // provider share has high variance; use a large sample.
  config.days = 3;
  config.attacks.quic_attacks_per_day = 1200;
  config.attacks.common_attacks_per_day = 0;
  std::uint64_t google = 0, facebook = 0, known = 0, quic = 0;
  // Pool several independent plans: single-plan shares wobble by several
  // percent because per-victim attack counts are heavy-tailed.
  for (const std::uint64_t seed : {13u, 14u, 15u, 16u}) {
    util::Rng rng(seed);
    const auto attacks = plan_attacks(config, registry(), deployment(), rng);
    for (const auto& attack : attacks) {
      if (attack.protocol != AttackProtocol::kQuic) continue;
      ++quic;
      if (attack.victim_asn == asdb::AsRegistry::kGoogle) ++google;
      if (attack.victim_asn == asdb::AsRegistry::kFacebook) ++facebook;
      if (attack.victim_is_known_server) ++known;
    }
  }
  ASSERT_GT(quic, 800u);
  EXPECT_NEAR(static_cast<double>(google) / quic, 0.58, 0.10);
  EXPECT_NEAR(static_cast<double>(facebook) / quic, 0.25, 0.08);
  EXPECT_GT(static_cast<double>(known) / quic, 0.93);
}

TEST(AttackSchedule, QuicAttacksOnSameVictimDoNotOverlap) {
  auto config = test_scenario();
  config.attacks.quic_attacks_per_day = 400;
  util::Rng rng(17);
  const auto attacks = plan_attacks(config, registry(), deployment(), rng);
  std::map<std::uint32_t, util::Timestamp> last_end;
  for (const auto& attack : attacks) {
    if (attack.protocol != AttackProtocol::kQuic) continue;
    auto& end = last_end[attack.victim.value()];
    EXPECT_GE(attack.start, end);
    end = attack.start + attack.duration;
  }
}

TEST(AttackSchedule, ProtocolNames) {
  EXPECT_STREQ(attack_protocol_name(AttackProtocol::kQuic), "QUIC");
  EXPECT_STREQ(attack_protocol_name(AttackProtocol::kTcp), "TCP");
  EXPECT_STREQ(attack_protocol_name(AttackProtocol::kIcmp), "ICMP");
}

TEST(Generator, StreamIsTimeOrderedAndInWindow) {
  auto config = test_scenario();
  config.tum.passes_per_day = 0;  // keep this test light
  config.rwth.passes_per_day = 0;
  TelescopeGenerator generator(config, registry(), deployment());
  util::Timestamp last{};
  const auto count = generator.generate([&](const net::RawPacket& packet) {
    EXPECT_GE(packet.timestamp, last);
    last = packet.timestamp;
    EXPECT_GE(packet.timestamp, config.start);
    EXPECT_LT(packet.timestamp, config.end());
  });
  EXPECT_GT(count, 1000u);
  EXPECT_EQ(generator.ground_truth().total_packet_count, count);
}

TEST(Generator, PacketsDecodeAndTargetTelescope) {
  auto config = test_scenario(9);
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = 10;
  TelescopeGenerator generator(config, registry(), deployment());
  std::uint64_t udp = 0, tcp = 0, icmp = 0;
  generator.generate([&](const net::RawPacket& packet) {
    const auto decoded = net::decode_ipv4(packet.data);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(config.telescope.contains(decoded->dst()));
    EXPECT_FALSE(config.telescope.contains(decoded->src()));
    if (decoded->is_udp()) {
      ++udp;
    } else if (decoded->is_tcp()) {
      ++tcp;
    } else {
      ++icmp;
    }
  });
  EXPECT_GT(udp, 0u);
  EXPECT_GT(tcp, 0u);
  EXPECT_GT(icmp, 0u);
}

TEST(Generator, ResearchScannerCoversTelescope) {
  auto config = test_scenario(21);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 24};
  config.botnet.sessions_per_day = 0;
  config.attacks.quic_attacks_per_day = 0;
  config.attacks.common_attacks_per_day = 0;
  config.misconfig.sessions_per_day = 0;
  config.rwth.passes_per_day = 0;
  TelescopeGenerator generator(config, registry(), deployment());
  std::unordered_set<std::uint32_t> targets;
  const auto tum_prefix = registry().prefixes_of(config.tum.asn).front();
  const auto count = generator.generate([&](const net::RawPacket& packet) {
    const auto decoded = net::decode_ipv4(packet.data);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(tum_prefix.contains(decoded->src()));
    EXPECT_EQ(decoded->udp().dst_port, 443);
    const auto dissected = quic::dissect_udp_payload(decoded->udp().payload);
    ASSERT_TRUE(dissected.is_quic);
    EXPECT_EQ(dissected.packets[0].kind, quic::QuicPacketKind::kInitial);
    targets.insert(decoded->dst().value());
  });
  EXPECT_EQ(count, 256u);  // one pass over a /24
  EXPECT_EQ(targets.size(), 256u);
  EXPECT_EQ(generator.ground_truth().research_probe_count, 256u);
}

TEST(Generator, DeterministicForSameSeed) {
  auto config = test_scenario(33);
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.botnet.sessions_per_day = 20;
  config.attacks.quic_attacks_per_day = 5;
  config.attacks.common_attacks_per_day = 5;
  config.misconfig.sessions_per_day = 5;
  TelescopeGenerator a(config, registry(), deployment());
  TelescopeGenerator b(config, registry(), deployment());
  std::vector<net::RawPacket> pa, pb;
  a.generate([&](const net::RawPacket& packet) { pa.push_back(packet); });
  b.generate([&](const net::RawPacket& packet) { pb.push_back(packet); });
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].timestamp, pb[i].timestamp);
    EXPECT_EQ(pa[i].data, pb[i].data);
  }
}

TEST(Generator, IntelDbReflectsGroundTruth) {
  auto config = test_scenario(45);
  config.tum.passes_per_day = 1.0;
  config.botnet.sessions_per_day = 800;
  config.botnet.tagged_malicious_share = 0.1;
  TelescopeGenerator generator(config, registry(), deployment());
  const auto db = generator.make_intel_db();
  const auto& truth = generator.ground_truth();
  ASSERT_GT(truth.botnet_sources.size(), 300u);
  std::uint64_t tagged = 0;
  for (const auto& source : truth.botnet_sources) {
    const auto& entry = db.lookup(source.address);
    if (source.tagged_malicious) {
      ++tagged;
      EXPECT_EQ(entry.category, threat::Category::kMalicious);
      EXPECT_FALSE(entry.tag_list.empty());
    }
  }
  EXPECT_NEAR(static_cast<double>(tagged) / truth.botnet_sources.size(), 0.1,
              0.04);
}

TEST(Generator, BotnetSourcesComeFromEyeballCountries) {
  auto config = test_scenario(57);
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.botnet.sessions_per_day = 1500;
  TelescopeGenerator generator(config, registry(), deployment());
  const auto& truth = generator.ground_truth();
  ASSERT_GT(truth.botnet_sources.size(), 1000u);
  std::map<std::string, std::uint64_t> by_country;
  for (const auto& source : truth.botnet_sources) {
    const auto* info = registry().lookup(source.address);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->type, asdb::NetworkType::kEyeball);
    ++by_country[source.country];
  }
  const double total = static_cast<double>(truth.botnet_sources.size());
  EXPECT_NEAR(by_country["BD"] / total, 0.34, 0.07);
  EXPECT_NEAR(by_country["US"] / total, 0.27, 0.07);
}

}  // namespace
}  // namespace quicsand::telescope
