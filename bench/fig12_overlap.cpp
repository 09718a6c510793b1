// Figure 12 (Appendix C.2): overlap of concurrent multi-vector attacks.
// Three quarters of concurrent QUIC attacks run completely in parallel
// with a TCP/ICMP attack (overlap share 100%); the mean share is 95%.
#include <iostream>

#include "bench_common.hpp"
#include "core/correlate.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 12: overlap share of concurrent attacks");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto report = core::correlate_attacks(
      scenario.analysis.quic_attacks, scenario.analysis.common_attacks);
  const auto shares = report.overlap_shares();
  if (shares.empty()) {
    std::cout << "no concurrent attacks at this scale; raise "
                 "QUICSAND_DAYS\n";
    return 1;
  }
  const util::Cdf cdf(shares);
  std::cout << "concurrent QUIC attacks: " << shares.size() << "\n";
  compare("fully overlapping (share == 100%)", "75%",
          util::pct(1.0 - cdf.at(0.999)));
  compare("mean overlap share", "95%", util::pct(cdf.mean()));
  print_cdf("CDF: overlap share", cdf, "fraction of QUIC attack time");
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
