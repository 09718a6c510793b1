// Figure 7: CDFs of flood durations and intensities, QUIC vs TCP/ICMP.
// The paper reports median durations of 255 s (QUIC) vs 1499 s
// (TCP/ICMP) and a median intensity close to 1 max-pps for both; the
// global rate estimate multiplies by 512 (telescope = 1/512 of IPv4).
#include <iostream>

#include "bench_common.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(
      std::cout, "Figure 7: flood duration and intensity, QUIC vs TCP/ICMP");
  print_scale(config);
  const auto scenario = run_scenario(config);

  std::vector<double> quic_durations, quic_rates;
  for (const auto& attack : scenario.analysis.quic_attacks) {
    quic_durations.push_back(util::to_seconds(attack.duration()));
    quic_rates.push_back(attack.peak_pps.count());
  }
  std::vector<double> common_durations, common_rates;
  for (const auto& attack : scenario.analysis.common_attacks) {
    common_durations.push_back(util::to_seconds(attack.duration()));
    common_rates.push_back(attack.peak_pps.count());
  }
  std::cout << "QUIC attacks: " << quic_durations.size()
            << "  TCP/ICMP attacks: " << common_durations.size() << "\n";
  const double window_scale = 30.0 / config.days;
  compare("TCP/ICMP attacks (30d, paper-scale note)", "282k",
          util::with_commas(static_cast<std::uint64_t>(
              static_cast<double>(common_durations.size()) * window_scale)) +
              " at 1:" +
              util::fmt(9400.0 / scenario.config.attacks
                                     .common_attacks_per_day,
                        1) +
              " background-rate scale");

  if (quic_durations.empty() || common_durations.empty()) {
    std::cout << "not enough attacks at this scale; raise QUICSAND_DAYS\n";
    return 1;
  }
  compare("median QUIC flood duration", "255 s",
          util::fmt(util::median_of(quic_durations), 0) + " s");
  compare("median TCP/ICMP flood duration", "1499 s",
          util::fmt(util::median_of(common_durations), 0) + " s");
  compare("median QUIC intensity", "~1 max pps",
          util::fmt(util::median_of(quic_rates), 2) + " max pps");
  compare("median TCP/ICMP intensity", "~1 max pps",
          util::fmt(util::median_of(common_rates), 2) + " max pps");
  compare("global-rate estimate for the median QUIC flood", "512 x max pps",
          util::fmt(util::median_of(quic_rates) * 512, 0) + " pps");

  print_cdf("(a) duration CDF: QUIC", util::Cdf(quic_durations), "s");
  print_cdf("(a) duration CDF: TCP/ICMP", util::Cdf(common_durations), "s");
  print_cdf("(b) intensity CDF: QUIC", util::Cdf(quic_rates), "max pps");
  print_cdf("(b) intensity CDF: TCP/ICMP", util::Cdf(common_rates),
            "max pps");
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
