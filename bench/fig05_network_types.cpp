// Figure 5: source network types of sessions (PeeringDB info_type).
// Requests originate predominantly from eyeball networks; responses come
// almost exclusively from content networks. Also prints the §5.2
// GreyNoise correlation (no benign scanners, ~2.3% tagged malicious) and
// the request-session country mix (BD 34%, US 27%, DZ 8%).
#include <iostream>
#include <map>

#include "bench_common.hpp"

namespace quicsand::bench {
namespace {

std::array<double, asdb::kNetworkTypeCount> type_shares(
    const std::vector<core::Session>& sessions) {
  std::array<double, asdb::kNetworkTypeCount> counts{};
  for (const auto& session : sessions) {
    const auto* info = registry().lookup(session.source);
    const auto type =
        info == nullptr ? asdb::NetworkType::kUnknown : info->type;
    counts[static_cast<std::size_t>(type)] += 1;
  }
  const double total = std::max<double>(1.0, sessions.size());
  for (auto& c : counts) c /= total;
  return counts;
}

int run() {
  const auto config = light_scenario({});
  util::print_heading(std::cout,
                      "Figure 5: source network types of sessions");
  print_scale(config);
  const auto scenario = run_scenario(config);

  const auto requests =
      scenario.pipeline->request_sessions(5 * util::kMinute);
  const auto& responses = scenario.analysis.response_sessions;
  std::cout << "request sessions: " << requests.size()
            << "  response sessions: " << responses.size() << "\n";
  compare("request/response session counts (30d paper)", "18k / 26k",
          std::to_string(requests.size()) + " / " +
              std::to_string(responses.size()) + " (scaled window)");

  const auto req_shares = type_shares(requests);
  const auto resp_shares = type_shares(responses);
  util::Table table({"network type", "requests", "responses"});
  for (std::size_t t = 0; t < asdb::kNetworkTypeCount; ++t) {
    table.add_row({asdb::network_type_name(
                       static_cast<asdb::NetworkType>(t)),
                   util::pct(req_shares[t]), util::pct(resp_shares[t])});
  }
  table.print(std::cout);
  compare("requests from eyeballs", "predominant",
          util::pct(req_shares[static_cast<std::size_t>(
              asdb::NetworkType::kEyeball)]));
  compare("responses from content", "almost exclusive",
          util::pct(resp_shares[static_cast<std::size_t>(
              asdb::NetworkType::kContent)]));

  // Average session sizes (paper: requests 11 pkts, responses 44 pkts).
  double req_pkts = 0, resp_pkts = 0;
  for (const auto& s : requests) {
    req_pkts += static_cast<double>(s.packets.count());
  }
  for (const auto& s : responses) {
    resp_pkts += static_cast<double>(s.packets.count());
  }
  compare("mean packets per request session", "11",
          util::fmt(req_pkts / std::max<double>(1, requests.size()), 1));
  compare("mean packets per response session", "44",
          util::fmt(resp_pkts / std::max<double>(1, responses.size()), 1));

  // GreyNoise correlation over request-session sources.
  util::print_heading(std::cout, "GreyNoise correlation (§5.2)");
  std::vector<net::Ipv4Address> sources;
  sources.reserve(requests.size());
  for (const auto& session : requests) sources.push_back(session.source);
  const auto summary = scenario.intel.summarize(sources);
  compare("benign scanners among requesters", "none",
          std::to_string(summary.benign));
  compare("tagged malicious share", "2.3%",
          util::pct(summary.malicious_share()));
  for (const auto& [tag, count] : summary.tag_counts) {
    std::cout << "    tag \"" << tag << "\": " << count << "\n";
  }

  // Country mix of request sessions.
  util::print_heading(std::cout, "Request session origin countries (§5.2)");
  std::map<std::string, std::uint64_t> by_country;
  for (const auto& session : requests) {
    const auto* info = registry().lookup(session.source);
    ++by_country[info == nullptr ? "??" : info->country];
  }
  const double total = std::max<double>(1.0, requests.size());
  compare("Bangladesh", "34%", util::pct(by_country["BD"] / total));
  compare("USA", "27%", util::pct(by_country["US"] / total));
  compare("Algeria", "8%", util::pct(by_country["DZ"] / total));
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
