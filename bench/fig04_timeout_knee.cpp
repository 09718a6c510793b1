// Figure 4: influence of the session timeout on the number of detected
// sessions. The paper sweeps 1..60 minutes, observes the knee at ~5
// minutes and uses timeout=inf as the lower bound (one session per
// source).
#include <iostream>
#include <limits>

#include "bench_common.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 4: session count vs timeout threshold");
  print_scale(config);
  const auto scenario = run_scenario(config);

  std::vector<util::Duration> timeouts;
  for (int minutes : {1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 45, 60}) {
    timeouts.push_back(minutes * util::kMinute);
  }
  timeouts.push_back(std::numeric_limits<util::Duration>::max());  // inf
  const auto sweep = scenario.pipeline->session_timeout_sweep(timeouts);

  util::Table table({"timeout", "sessions", "vs 1min"});
  const double base = static_cast<double>(sweep.front().second);
  for (const auto& [timeout, count] : sweep) {
    const bool inf = timeout == std::numeric_limits<util::Duration>::max();
    table.add_row({inf ? "inf (lower bound)"
                       : std::to_string(timeout / util::kMinute) + " min",
                   util::with_commas(count),
                   util::pct(static_cast<double>(count) / base)});
  }
  table.print(std::cout);

  // Knee heuristic: the first timeout where one extra minute removes
  // less than 1% of the 1-minute session count.
  std::size_t knee = sweep.size() - 1;
  for (std::size_t i = 1; i + 1 < sweep.size(); ++i) {
    const double drop =
        static_cast<double>(sweep[i - 1].second - sweep[i].second);
    const double minutes_step = static_cast<double>(
        (sweep[i].first - sweep[i - 1].first) / util::kMinute);
    if (drop / minutes_step < 0.01 * base) {
      knee = i;
      break;
    }
  }
  compare("knee (chosen threshold)", "5 min",
          std::to_string(sweep[knee].first / util::kMinute) + " min");
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
