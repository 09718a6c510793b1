// Figure 9: attack properties per content provider. >83% of attacks
// target Google (58%) and Facebook (25%). Floods spoof a modest set of
// client addresses but randomize ports, which drives new SCIDs at the
// server. Despite fewer packets per attack, Google responds with more
// SCIDs (indicating higher state churn). Version mix: mvfst-draft-27
// (95%) in Facebook backscatter, draft-29 (78%) in Google backscatter.
#include <iostream>

#include "bench_common.hpp"
#include "core/victims.hpp"
#include "quic/version.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 9: per-provider attack properties");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto victim_report = core::analyze_victims(
      scenario.analysis.quic_attacks, registry(), deployment());
  const double total = std::max<double>(1, victim_report.total_attacks);
  auto share_of = [&](asdb::Asn asn) {
    const auto it = victim_report.attacks_by_asn.find(asn);
    return it == victim_report.attacks_by_asn.end()
               ? 0.0
               : static_cast<double>(it->second) / total;
  };
  compare("attacks on Google", "58%",
          util::pct(share_of(asdb::AsRegistry::kGoogle)));
  compare("attacks on Facebook", "25%",
          util::pct(share_of(asdb::AsRegistry::kFacebook)));

  const asdb::Asn providers[] = {asdb::AsRegistry::kGoogle,
                                 asdb::AsRegistry::kFacebook};
  const auto profiles = core::profile_providers(
      scenario.analysis.quic_attacks, scenario.analysis.response_sessions,
      registry(), providers);

  util::Table table({"metric", "Google", "Facebook"});
  auto row = [&](const char* name, auto getter) {
    table.add_row({name, util::fmt(getter(profiles[0]), 1),
                   util::fmt(getter(profiles[1]), 1)});
  };
  table.add_row({"attacks", std::to_string(profiles[0].attacks),
                 std::to_string(profiles[1].attacks)});
  row("median packets/attack", [](const core::ProviderProfile& p) {
    return p.packets_per_attack.median();
  });
  row("median client IPs/attack", [](const core::ProviderProfile& p) {
    return p.client_ips_per_attack.median();
  });
  row("median client ports/attack", [](const core::ProviderProfile& p) {
    return p.client_ports_per_attack.median();
  });
  row("median SCIDs/attack", [](const core::ProviderProfile& p) {
    return p.scids_per_attack.median();
  });
  table.print(std::cout);
  compare("Google: more SCIDs despite fewer packets",
          "yes",
          (profiles[0].scids_per_attack.median() >
                   profiles[1].scids_per_attack.median() &&
           profiles[0].packets_per_attack.median() <
                   profiles[1].packets_per_attack.median())
              ? "yes"
              : "no");

  compare("port randomization drives SCIDs",
          "SCIDs track ports, not IPs",
          "SCID/IP ratio Google=" +
              util::fmt(profiles[0].scids_per_attack.median() /
                            std::max(1.0, profiles[0]
                                              .client_ips_per_attack.median()),
                        1) +
              ", Facebook=" +
              util::fmt(profiles[1].scids_per_attack.median() /
                            std::max(1.0, profiles[1]
                                              .client_ips_per_attack.median()),
                        1));
  compare("Facebook backscatter on mvfst-draft-27", "95%",
          util::pct(profiles[1].version_share(0xfaceb002)));
  compare("Google backscatter on draft-29", "78%",
          util::pct(profiles[0].version_share(0xff00001d)));

  util::print_heading(std::cout, "Version mix detail");
  util::Table versions({"provider", "version", "packet share"});
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    std::uint64_t sum = 0;
    for (const auto& [v, c] : profiles[p].version_counts) sum += c;
    for (const auto& [v, c] : profiles[p].version_counts) {
      versions.add_row({profiles[p].name, quic::version_name(v),
                        util::pct(static_cast<double>(c) /
                                  std::max<double>(1, sum))});
    }
  }
  versions.print(std::cout);
  print_timing(scenario);
  return 0;
}

}  // namespace
}  // namespace quicsand::bench

int main(int argc, char** argv) {
  quicsand::bench::init(argc, argv);
  const int rc = quicsand::bench::run();
  quicsand::bench::write_obs_outputs();
  return rc;
}
