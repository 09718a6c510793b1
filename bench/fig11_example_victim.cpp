// Figure 11 (Appendix C.1): attack timeline for a single victim — one
// concurrent (multi-vector) QUIC+TCP/ICMP attack followed by sequential
// QUIC floods. We select the victim with the richest mixed timeline and
// print it.
#include <iostream>

#include "bench_common.hpp"
#include "core/correlate.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 11: example victim attack timeline");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto report = core::correlate_attacks(
      scenario.analysis.quic_attacks, scenario.analysis.common_attacks);

  // Pick the victim with at least one concurrent QUIC attack and the
  // most QUIC attacks overall.
  std::unordered_map<std::uint32_t, std::pair<int, int>> per_victim;
  for (const auto& correlation : report.per_attack) {
    const auto& attack =
        scenario.analysis.quic_attacks[correlation.quic_attack_index];
    auto& [quic_count, concurrent_count] =
        per_victim[attack.victim.value()];
    ++quic_count;
    if (correlation.relation == core::Relation::kConcurrent) {
      ++concurrent_count;
    }
  }
  net::Ipv4Address best;
  int best_count = -1;
  for (const auto& [victim, counts] : per_victim) {
    if (counts.second > 0 && counts.first > best_count) {
      best_count = counts.first;
      best = net::Ipv4Address(victim);
    }
  }
  if (best_count < 0) {
    std::cout << "no multi-vector victim at this scale; raise "
                 "QUICSAND_DAYS\n";
    return 1;
  }

  const auto* info = registry().lookup(best);
  std::cout << "victim: " << best.to_string() << " ("
            << (info != nullptr ? info->name : "?") << ")\n";
  const auto timeline = core::victim_timeline(
      best, scenario.analysis.quic_attacks, scenario.analysis.common_attacks);
  util::Table table({"vector", "start (UTC)", "end (UTC)", "duration"});
  for (const auto& entry : timeline) {
    table.add_row({entry.is_quic ? "QUIC" : "TCP/ICMP",
                   util::format_utc(entry.start), util::format_utc(entry.end),
                   util::format_duration(entry.end - entry.start)});
  }
  table.print(std::cout);
  compare("pattern", "1 concurrent multi-vector + sequential QUIC floods",
          std::to_string(best_count) + " QUIC attacks, >=1 concurrent");
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
