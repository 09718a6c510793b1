// Figure 8: multi-vector attacks. 51% of QUIC floods run concurrently
// with a TCP/ICMP flood on the same victim, 40% are sequential (same
// victim, disjoint in time, mean gap 36 h), 9% are isolated.
#include <iostream>

#include "bench_common.hpp"
#include "core/correlate.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout, "Figure 8: multi-vector attack shares");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto report = core::correlate_attacks(
      scenario.analysis.quic_attacks, scenario.analysis.common_attacks);
  std::cout << "QUIC attacks correlated: " << report.total() << "\n";
  compare("concurrent with TCP/ICMP", "51%",
          util::pct(report.share(core::Relation::kConcurrent)));
  compare("sequential to TCP/ICMP", "40%",
          util::pct(report.share(core::Relation::kSequential)));
  compare("isolated (no TCP/ICMP on victim)", "9%",
          util::pct(report.share(core::Relation::kIsolated)));

  const auto gaps = report.gaps_seconds();
  if (!gaps.empty()) {
    compare("mean gap of sequential attacks", "36 h",
            util::fmt(util::Cdf(gaps).mean() / 3600.0, 1) + " h");
  }
  // Cross-check against planner ground truth.
  std::uint64_t planned_concurrent = 0, planned_total = 0;
  for (const auto* attack : scenario.truth.quic_attacks()) {
    ++planned_total;
    if (attack->relation == telescope::PlannedRelation::kConcurrent) {
      ++planned_concurrent;
    }
  }
  util::print_heading(std::cout, "Ground-truth cross-check");
  compare("planned concurrent share", "51%",
          util::pct(static_cast<double>(planned_concurrent) /
                    std::max<double>(1, static_cast<double>(planned_total))));
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
