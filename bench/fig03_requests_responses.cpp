// Figure 3: sanitized QUIC packets by type. Requests (scans) follow a
// stable diurnal pattern peaking at 6:00 and 18:00 UTC; responses
// (backscatter) are erratic. The paper reports a 15% / 85% split.
// Also prints the §6 message composition of DoS-suspect events
// (~31% Initial / ~57% Handshake).
#include <iostream>

#include "bench_common.hpp"

namespace quicsand::bench {
namespace {

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 3: sanitized QUIC packets by type");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto& stats = scenario.pipeline->stats();
  const auto requests = stats.sanitized_requests();
  const auto responses = stats.sanitized_responses();
  const double total = static_cast<double>(requests + responses);
  compare("request share", "15%", util::pct(requests / total));
  compare("response share", "85%", util::pct(responses / total));

  // Representative day: hour-of-day profile averaged over the window.
  const auto& hourly = scenario.pipeline->hourly();
  std::vector<double> req_profile(24, 0), resp_profile(24, 0);
  for (std::size_t h = 0; h < hourly.quic_requests.size(); ++h) {
    req_profile[h % 24] += static_cast<double>(hourly.quic_requests[h]);
    resp_profile[h % 24] += static_cast<double>(hourly.quic_responses[h]);
  }
  util::print_heading(std::cout,
                      "Hour-of-day profile (mean packets/hour)");
  util::Table table({"hour UTC", "requests", "responses"});
  for (int h = 0; h < 24; ++h) {
    table.add_row({std::to_string(h) + ":00",
                   util::fmt(req_profile[static_cast<std::size_t>(h)] /
                                 config.days,
                             0),
                   util::fmt(resp_profile[static_cast<std::size_t>(h)] /
                                 config.days,
                             0)});
  }
  table.print(std::cout);
  const auto peak_6 = req_profile[6];
  const auto trough_0 = req_profile[0];
  const auto peak_18 = req_profile[18];
  compare("diurnal peaks", "6:00 and 18:00 UTC",
          "6:00/0:00 ratio=" + util::fmt(peak_6 / std::max(1.0, trough_0), 2) +
              ", 18:00/0:00 ratio=" +
              util::fmt(peak_18 / std::max(1.0, trough_0), 2));

  // §6 composition over DoS-suspect response sessions.
  std::uint64_t initial = 0, handshake = 0, composition_total = 0;
  for (const auto& attack : scenario.analysis.quic_attacks) {
    const auto& session =
        scenario.analysis.response_sessions[attack.session_index];
    initial += session.kind_counts[static_cast<std::size_t>(
        quic::QuicPacketKind::kInitial)];
    handshake += session.kind_counts[static_cast<std::size_t>(
        quic::QuicPacketKind::kHandshake)];
    for (const auto count : session.kind_counts) composition_total += count;
  }
  util::print_heading(std::cout,
                      "Message composition of DoS-suspect events (§6)");
  if (composition_total > 0) {
    const double n = static_cast<double>(composition_total);
    compare("Initial share", "31%", util::pct(initial / n));
    compare("Handshake share", "57%", util::pct(handshake / n));
    compare("other (short header etc.)", "12%",
            util::pct((n - initial - handshake) / n));
  }
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
