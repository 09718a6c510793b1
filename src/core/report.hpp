// Aggregated analysis report: the full §5 story for one capture, as a
// struct (for programmatic use) and as rendered text (for the CLI tools).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "asdb/registry.hpp"
#include "core/correlate.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/victims.hpp"
#include "scanner/deployment.hpp"

namespace quicsand::core {

struct AnalysisReport {
  // Traffic overview (§5.1).
  std::uint64_t total_packets = 0;
  std::uint64_t quic_packets = 0;
  std::uint64_t research_packets = 0;
  double request_share = 0;   ///< of sanitized QUIC packets
  double response_share = 0;

  // Sessions.
  std::uint64_t request_sessions = 0;
  std::uint64_t response_sessions = 0;
  double mean_request_session_packets = 0;
  double mean_response_session_packets = 0;

  // DoS events (§5.2).
  std::uint64_t quic_attacks = 0;
  std::uint64_t common_attacks = 0;
  double quic_duration_median_s = 0;
  double common_duration_median_s = 0;
  double quic_peak_pps_median = 0;

  // Multi-vector structure.
  double concurrent_share = 0;
  double sequential_share = 0;
  double isolated_share = 0;

  // Victims.
  std::uint64_t victims = 0;
  double known_server_share = 0;
  double single_attack_victim_share = 0;
  std::vector<std::pair<std::string, std::uint64_t>> top_victim_ases;
};

/// Assemble the full report from an analyzed pipeline.
AnalysisReport build_report(ParallelPipeline& pipeline,
                            const AttackAnalysis& analysis,
                            const asdb::AsRegistry& registry,
                            const scanner::Deployment& deployment);

/// Render the report as the text summary the examples print.
void print_report(std::ostream& os, const AnalysisReport& report);

}  // namespace quicsand::core
