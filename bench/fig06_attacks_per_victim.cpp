// Figure 6: CDF of the number of QUIC flood attacks per victim. The
// paper finds 2905 attacks on 394 victims in 30 days, more than half of
// the victims attacked exactly once, and 98% of attacks aimed at known
// QUIC servers from the active-scan hitlist.
#include <iostream>

#include "bench_common.hpp"
#include "core/victims.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout, "Figure 6: attacks per QUIC flood victim");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto report = core::analyze_victims(scenario.analysis.quic_attacks,
                                            registry(), deployment());
  const double window_scale = 30.0 / config.days;
  compare("QUIC attacks (30d projection)", "2905",
          util::with_commas(static_cast<std::uint64_t>(
              static_cast<double>(report.total_attacks) * window_scale)));
  compare("victims in window", "394 (30d)",
          std::to_string(report.victims.size()));
  compare("victims attacked exactly once", ">50%",
          util::pct(report.single_attack_victim_share()));
  compare("attacks on known QUIC servers", "98%",
          util::pct(report.known_server_share()));

  const util::Cdf cdf(report.attacks_per_victim());
  print_cdf("CDF: attacks per victim", cdf, "attacks");

  util::print_heading(std::cout, "Most-attacked victims (top 5)");
  util::Table table({"victim", "AS", "attacks", "on hitlist"});
  for (std::size_t i = 0; i < std::min<std::size_t>(5, report.victims.size());
       ++i) {
    const auto& victim = report.victims[i];
    table.add_row({victim.address.to_string(), victim.as_name,
                   std::to_string(victim.attack_count),
                   victim.known_quic_server ? "yes" : "no"});
  }
  table.print(std::cout);
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
