// Quickstart: generate a small synthetic telescope scenario, run the
// QUICsand analysis pipeline on it, and print what the paper's §5 would
// report — all in a few seconds.
//
//   ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "asdb/registry.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/victims.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace quicsand;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? util::require_u64("seed", argv[1]) : 1;

  // 1. A miniature Internet: AS registry (PeeringDB substitute) and a
  //    QUIC server deployment (active-scan hitlist substitute).
  const auto registry = asdb::AsRegistry::synthetic({}, seed);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, seed);

  // 2. A one-day telescope scenario with the paper's traffic mixture,
  //    scaled down to run in seconds.
  auto config = telescope::ScenarioConfig::april2021(/*days=*/1, seed);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 18};
  config.tum.passes_per_day = 1.0;  // guarantee a research pass today
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = 120;
  telescope::TelescopeGenerator generator(config, registry, deployment);

  // 3. The analysis pipeline: classify -> sessionize -> detect ->
  //    correlate, sharded by source over every hardware thread.
  core::PipelineOptions options;
  options.window_start = config.start;
  options.days = config.days;
  options.research_prefixes.push_back(
      registry.prefixes_of(asdb::AsRegistry::kTumScanner).front());
  core::ParallelPipeline pipeline(options, /*shards=*/0);
  generator.generate(
      [&](const net::RawPacket& packet) { pipeline.consume(packet); });

  const auto& stats = pipeline.stats();
  std::cout << "telescope packets: " << stats.total << "\n";
  std::cout << "QUIC requests:  "
            << stats.of(core::TrafficClass::kQuicRequest) << "\n";
  std::cout << "QUIC responses: "
            << stats.of(core::TrafficClass::kQuicResponse) << "\n";
  std::cout << "research-scanner packets removed: " << stats.research
            << "\n\n";

  const auto analysis = pipeline.analyze_attacks();
  std::cout << "QUIC floods detected:     " << analysis.quic_attacks.size()
            << " (of " << analysis.response_sessions.size()
            << " response sessions)\n";
  std::cout << "TCP/ICMP floods detected: " << analysis.common_attacks.size()
            << "\n";

  const auto report = core::correlate_attacks(analysis.quic_attacks,
                                              analysis.common_attacks);
  std::cout << "multi-vector: "
            << util::pct(report.share(core::Relation::kConcurrent))
            << " concurrent, "
            << util::pct(report.share(core::Relation::kSequential))
            << " sequential, "
            << util::pct(report.share(core::Relation::kIsolated))
            << " isolated\n";

  const auto victims = core::analyze_victims(analysis.quic_attacks, registry,
                                             deployment);
  std::cout << "victims: " << victims.victims.size() << ", "
            << util::pct(victims.known_server_share())
            << " of attacks hit known QUIC servers\n";
  if (!victims.victims.empty()) {
    const auto& top = victims.victims.front();
    std::cout << "most attacked: " << top.address.to_string() << " ("
              << top.as_name << ", " << top.attack_count << " attacks)\n";
  }
  return 0;
}
