// Figure 10 (Appendix B): sensitivity of the DoS detection to the
// threshold weight w. Every Moore-et-al threshold is multiplied by w;
// the number of detected attacks drops with stricter thresholds while
// the share of content-provider victims stays high — QUIC Initial floods
// target large content infrastructures at every sensitivity level.
// Also reports the excluded (non-attack) session profile from App. B.
#include <iostream>

#include "bench_common.hpp"
#include "core/victims.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 10: DoS threshold-weight sensitivity");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto& sessions = scenario.analysis.response_sessions;
  std::cout << "response sessions analyzed: " << sessions.size() << "\n";

  util::Table table(
      {"w", "attacks", "share of sessions", "content-provider share"});
  for (const double w :
       {0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0}) {
    const auto attacks =
        core::detect_attacks(sessions, core::DosThresholds{}.weighted(w));
    std::uint64_t content = 0;
    for (const auto& attack : attacks) {
      const auto* info = registry().lookup(attack.victim);
      if (info != nullptr && info->type == asdb::NetworkType::kContent) {
        ++content;
      }
    }
    table.add_row(
        {util::fmt(w, 1), std::to_string(attacks.size()),
         util::pct(static_cast<double>(attacks.size()) /
                   std::max<double>(1, sessions.size())),
         attacks.empty()
             ? "-"
             : util::pct(static_cast<double>(content) / attacks.size())});
  }
  table.print(std::cout);

  const auto default_attacks =
      core::detect_attacks(sessions, core::DosThresholds{});
  compare("attack share of response sessions at w=1", "11%",
          util::pct(static_cast<double>(default_attacks.size()) /
                    std::max<double>(1, sessions.size())));
  const auto strict =
      core::detect_attacks(sessions, core::DosThresholds{}.weighted(10));
  compare("attacks remaining at w=10", ">= 5 (nonzero)",
          std::to_string(strict.size()));

  util::print_heading(std::cout, "Excluded sessions at w=1 (Appendix B)");
  const auto excluded = core::summarize_excluded(sessions, {});
  compare("median packets", "11", util::fmt(excluded.median_packets, 0));
  compare("median duration", "7 s",
          util::fmt(excluded.median_duration_s, 0) + " s");
  compare("median intensity", "0.18 max pps",
          util::fmt(excluded.median_peak_pps, 2) + " max pps");
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
