// Figure 13 (Appendix C.3): time gaps between sequential QUIC attacks
// and the nearest TCP/ICMP attack on the same victim. 82% of gaps exceed
// one hour; the longest stretch to weeks — evidence that sequential
// attacks are not part of one coordinated multi-vector event.
#include <iostream>

#include "bench_common.hpp"
#include "core/correlate.hpp"

namespace quicsand::bench {
namespace {

int run() {
  // Gaps are bounded by the window, so use a longer default window here.
  LightScenarioOptions options;
  options.days = 10;
  const auto config = light_scenario(options);
  util::print_heading(std::cout,
                      "Figure 13: gaps of sequential QUIC attacks");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto report = core::correlate_attacks(
      scenario.analysis.quic_attacks, scenario.analysis.common_attacks);
  const auto gaps = report.gaps_seconds();
  if (gaps.empty()) {
    std::cout << "no sequential attacks at this scale; raise "
                 "QUICSAND_DAYS\n";
    return 1;
  }
  util::Cdf cdf(gaps);
  std::cout << "sequential QUIC attacks: " << gaps.size() << "\n";
  compare("gaps longer than one hour", "82%",
          util::pct(1.0 - cdf.at(3600.0)));
  compare("mean gap", "36 h",
          util::fmt(cdf.mean() / 3600.0, 1) + " h  (window-capped at " +
              std::to_string(config.days) + "d)");
  compare("maximum gap", "up to 28 d",
          util::format_duration(util::from_seconds(cdf.max())));
  print_cdf("CDF: gap", cdf, "seconds");
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
