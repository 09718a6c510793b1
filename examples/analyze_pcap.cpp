// analyze_pcap — run the QUICsand pipeline on a pcap file, or write a
// synthetic telescope capture to analyze later. This is the tool a
// telescope operator would point at their own capture.
//
//   ./analyze_pcap --emit capture.pcap [--days N] [--seed S]
//       generate a synthetic telescope capture (LINKTYPE_RAW)
//   ./analyze_pcap --in capture.pcap [--window-start EPOCH] [--days N]
//       classify, sessionize and report on an existing capture: classic
//       pcap or pcapng, raw IPv4 or Ethernet (802.1Q/802.1ad tags too)
#include <iostream>
#include <string>

#include "asdb/registry.hpp"
#include "asdb/serialize.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/report.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace quicsand;

namespace {

struct Args {
  std::string emit;
  std::string in;
  std::string registry_file;       ///< load AS data instead of synthetic
  std::string dump_registry_file;  ///< export the synthetic registry
  std::string metrics_out;         ///< JSON metrics snapshot (--in mode)
  int days = 1;
  std::uint64_t seed = 7;
  util::Timestamp window_start = util::kApril2021Start;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--emit") {
      const char* v = value();
      if (v == nullptr) return false;
      args.emit = v;
    } else if (arg == "--in") {
      const char* v = value();
      if (v == nullptr) return false;
      args.in = v;
    } else if (arg == "--days") {
      const char* v = value();
      if (v == nullptr) return false;
      args.days = util::require_int("--days", v);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return false;
      args.seed = util::require_u64("--seed", v);
    } else if (arg == "--window-start") {
      const char* v = value();
      if (v == nullptr) return false;
      args.window_start =
          util::Timestamp{} +
          util::require_i64("--window-start", v) * util::kSecond;
    } else if (arg == "--metrics-out") {
      const char* v = value();
      if (v == nullptr) return false;
      args.metrics_out = v;
    } else if (arg == "--registry") {
      const char* v = value();
      if (v == nullptr) return false;
      args.registry_file = v;
    } else if (arg == "--dump-registry") {
      const char* v = value();
      if (v == nullptr) return false;
      args.dump_registry_file = v;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  return !args.emit.empty() || !args.in.empty() ||
         !args.dump_registry_file.empty();
}

/// The AS registry used for mapping: an operator-provided file (see
/// asdb/serialize.hpp for the format) or the synthetic one.
asdb::AsRegistry make_registry(const Args& args) {
  if (!args.registry_file.empty()) {
    asdb::LoadError error;
    auto loaded = asdb::load_registry_file(args.registry_file, &error);
    if (!loaded) {
      std::cerr << "failed to load " << args.registry_file << " line "
                << error.line << ": " << error.message
                << "; falling back to the synthetic registry\n";
    } else {
      std::cout << "loaded " << loaded->as_count() << " ASes from "
                << args.registry_file << "\n";
      return *std::move(loaded);
    }
  }
  return asdb::AsRegistry::synthetic({}, args.seed);
}

int emit(const Args& args) {
  const auto registry = make_registry(args);
  const auto deployment =
      scanner::Deployment::synthetic(registry, {}, args.seed);
  auto config = telescope::ScenarioConfig::april2021(args.days, args.seed);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 18};
  config.tum.passes_per_day = 1.0;
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = 120;
  telescope::TelescopeGenerator generator(config, registry, deployment);
  net::PcapWriter writer(args.emit);
  generator.generate(
      [&](const net::RawPacket& packet) { writer.write(packet); });
  std::cout << "wrote " << writer.packets_written() << " packets to "
            << args.emit << "\n";
  std::cout << "ground truth: " << generator.ground_truth().attacks.size()
            << " planned attacks ("
            << generator.ground_truth().quic_attacks().size() << " QUIC)\n";
  return 0;
}

int analyze(const Args& args) {
  obs::MetricsRegistry metrics;
  core::PipelineOptions options;
  options.window_start = args.window_start;
  options.days = args.days;
  options.obs.metrics = &metrics;
  // Flag the known research scanner prefixes (TUM / RWTH).
  options.research_prefixes.push_back(
      *net::Ipv4Prefix::parse("138.246.0.0/16"));
  options.research_prefixes.push_back(
      *net::Ipv4Prefix::parse("137.226.0.0/16"));
  core::ParallelPipeline pipeline(options, /*shards=*/0);

  net::PcapReader reader(args.in);
  reader.set_metrics(&metrics);
  const std::uint64_t n = reader.for_each(
      [&](net::PacketView packet) { pipeline.consume(packet); });
  std::cout << "read " << n << " packets from " << args.in << "\n\n";

  const auto& stats = pipeline.stats();
  util::Table classes({"class", "packets"});
  for (std::size_t c = 0; c < core::kTrafficClassCount; ++c) {
    classes.add_row(
        {core::traffic_class_name(static_cast<core::TrafficClass>(c)),
         std::to_string(stats.by_class[c])});
  }
  classes.print(std::cout);
  std::cout << "undecodable: " << stats.undecodable
            << ", non-QUIC UDP/443: " << stats.quic_port_rejects
            << ", research-flagged: " << stats.research << "\n\n";

  const auto analysis = pipeline.analyze_attacks();
  // AS mapping: --registry for operator data, synthetic otherwise.
  const auto registry = make_registry(args);
  const auto deployment =
      scanner::Deployment::synthetic(registry, {}, args.seed);
  core::print_report(
      std::cout, core::build_report(pipeline, analysis, registry, deployment));
  std::cout << "\nQUIC response sessions: " << analysis.response_sessions.size()
            << ", detected QUIC floods: " << analysis.quic_attacks.size()
            << "\n";
  std::cout << "TCP/ICMP backscatter sessions: "
            << analysis.common_sessions.size()
            << ", detected common floods: " << analysis.common_attacks.size()
            << "\n";
  if (!analysis.quic_attacks.empty()) {
    util::Table attacks(
        {"victim", "start (UTC)", "duration", "packets", "max pps"});
    std::size_t shown = 0;
    for (const auto& attack : analysis.quic_attacks) {
      attacks.add_row({attack.victim.to_string(),
                       util::format_utc(attack.start),
                       util::format_duration(attack.duration()),
                       std::to_string(attack.packets.count()),
                       util::fmt(attack.peak_pps.count(), 2)});
      if (++shown == 10) break;
    }
    std::cout << "\nfirst QUIC floods:\n";
    attacks.print(std::cout);
  }
  if (!args.metrics_out.empty()) {
    if (!metrics.write_json_file(args.metrics_out)) {
      std::cerr << "cannot write " << args.metrics_out << "\n";
      return 1;
    }
    std::cout << "\nmetrics snapshot written to " << args.metrics_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: analyze_pcap --emit FILE | --in FILE "
                 "[--days N] [--seed S] [--window-start EPOCH] "
                 "[--registry FILE] [--dump-registry FILE] "
                 "[--metrics-out FILE]\n";
    return 2;
  }
  if (!args.dump_registry_file.empty()) {
    const auto registry = make_registry(args);
    if (!asdb::save_registry_file(args.dump_registry_file, registry)) {
      std::cerr << "cannot write " << args.dump_registry_file << "\n";
      return 1;
    }
    std::cout << "wrote " << registry.as_count() << " ASes to "
              << args.dump_registry_file << "\n";
    if (args.emit.empty() && args.in.empty()) return 0;
  }
  if (!args.emit.empty()) return emit(args);
  return analyze(args);
}
