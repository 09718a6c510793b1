#include "core/report.hpp"

#include <algorithm>
#include <ostream>

#include "util/stats.hpp"
#include "util/table.hpp"

namespace quicsand::core {

AnalysisReport build_report(ParallelPipeline& pipeline,
                            const AttackAnalysis& analysis,
                            const asdb::AsRegistry& registry,
                            const scanner::Deployment& deployment) {
  AnalysisReport report;
  const auto& stats = pipeline.stats();
  report.total_packets = stats.total;
  report.quic_packets = stats.of(TrafficClass::kQuicRequest) +
                        stats.of(TrafficClass::kQuicResponse);
  report.research_packets = stats.research;
  const double sanitized =
      std::max<double>(1.0, static_cast<double>(stats.sanitized_quic()));
  report.request_share =
      static_cast<double>(stats.sanitized_requests()) / sanitized;
  report.response_share =
      static_cast<double>(stats.sanitized_responses()) / sanitized;

  const auto requests =
      pipeline.request_sessions(pipeline.options().session_timeout);
  report.request_sessions = requests.size();
  report.response_sessions = analysis.response_sessions.size();
  double req_packets = 0;
  for (const auto& s : requests) {
    req_packets += static_cast<double>(s.packets.count());
  }
  double resp_packets = 0;
  for (const auto& s : analysis.response_sessions) {
    resp_packets += static_cast<double>(s.packets.count());
  }
  report.mean_request_session_packets =
      req_packets / std::max<double>(1.0, static_cast<double>(requests.size()));
  report.mean_response_session_packets =
      resp_packets /
      std::max<double>(1.0,
                       static_cast<double>(analysis.response_sessions.size()));

  report.quic_attacks = analysis.quic_attacks.size();
  report.common_attacks = analysis.common_attacks.size();
  std::vector<double> quic_durations, common_durations, quic_rates;
  for (const auto& a : analysis.quic_attacks) {
    quic_durations.push_back(util::to_seconds(a.duration()));
    quic_rates.push_back(a.peak_pps.count());
  }
  for (const auto& a : analysis.common_attacks) {
    common_durations.push_back(util::to_seconds(a.duration()));
  }
  if (!quic_durations.empty()) {
    report.quic_duration_median_s = util::median_of(quic_durations);
    report.quic_peak_pps_median = util::median_of(quic_rates);
  }
  if (!common_durations.empty()) {
    report.common_duration_median_s = util::median_of(common_durations);
  }

  const auto correlation = correlate_attacks(analysis.quic_attacks,
                                             analysis.common_attacks);
  report.concurrent_share = correlation.share(Relation::kConcurrent);
  report.sequential_share = correlation.share(Relation::kSequential);
  report.isolated_share = correlation.share(Relation::kIsolated);

  const auto victims =
      analyze_victims(analysis.quic_attacks, registry, deployment);
  report.victims = victims.victims.size();
  report.known_server_share = victims.known_server_share();
  report.single_attack_victim_share = victims.single_attack_victim_share();
  std::vector<std::pair<std::string, std::uint64_t>> ases;
  for (const auto& [asn, count] : victims.attacks_by_asn) {
    const auto* info = registry.find(asn);
    ases.emplace_back(info != nullptr ? info->name : std::to_string(asn),
                      count);
  }
  std::sort(ases.begin(), ases.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (ases.size() > 5) ases.resize(5);
  report.top_victim_ases = std::move(ases);
  return report;
}

void print_report(std::ostream& os, const AnalysisReport& report) {
  util::print_heading(os, "QUICsand analysis report");
  util::Table overview({"metric", "value"});
  overview.add_row({"total packets", util::with_commas(report.total_packets)});
  overview.add_row({"QUIC packets", util::with_commas(report.quic_packets)});
  overview.add_row(
      {"research scanner packets", util::with_commas(report.research_packets)});
  overview.add_row({"sanitized request share",
                    util::pct(report.request_share)});
  overview.add_row({"sanitized response share",
                    util::pct(report.response_share)});
  overview.add_row({"request sessions",
                    util::with_commas(report.request_sessions)});
  overview.add_row({"response sessions",
                    util::with_commas(report.response_sessions)});
  overview.add_row({"mean pkts/request session",
                    util::fmt(report.mean_request_session_packets, 1)});
  overview.add_row({"mean pkts/response session",
                    util::fmt(report.mean_response_session_packets, 1)});
  overview.add_row({"QUIC floods", util::with_commas(report.quic_attacks)});
  overview.add_row(
      {"TCP/ICMP floods", util::with_commas(report.common_attacks)});
  overview.add_row({"median QUIC flood duration",
                    util::fmt(report.quic_duration_median_s, 0) + " s"});
  overview.add_row({"median TCP/ICMP flood duration",
                    util::fmt(report.common_duration_median_s, 0) + " s"});
  overview.add_row({"median QUIC intensity",
                    util::fmt(report.quic_peak_pps_median, 2) + " max pps"});
  overview.add_row({"multi-vector concurrent",
                    util::pct(report.concurrent_share)});
  overview.add_row({"multi-vector sequential",
                    util::pct(report.sequential_share)});
  overview.add_row({"isolated", util::pct(report.isolated_share)});
  overview.add_row({"victims", util::with_commas(report.victims)});
  overview.add_row({"attacks on known QUIC servers",
                    util::pct(report.known_server_share)});
  overview.add_row({"single-attack victims",
                    util::pct(report.single_attack_victim_share)});
  overview.print(os);
  if (!report.top_victim_ases.empty()) {
    os << "top victim ASes:";
    for (const auto& [name, count] : report.top_victim_ases) {
      os << "  " << name << "(" << count << ")";
    }
    os << "\n";
  }
}

}  // namespace quicsand::core
