// flood_lab — the paper's §6 server experiment as an interactive tool:
// replay a recorded client-Initial flood against a fresh worker-pool
// QUIC server and report availability (Table 1 methodology).
//
//   ./flood_lab [--pps N] [--packets N] [--workers N] [--retry]
//               [--hold SECONDS] [--dump-pcap FILE]
//               [--listen HOST:PORT]   live admin endpoint during the
//                                      replay; port 0 picks one
//               [--serve-for SECONDS]  keep serving after the replay,
//                                      0 = until SIGINT/SIGTERM
//
// Send mode turns the lab into a real traffic source: it streams a
// telescope scenario's datagrams over loopback UDP (QSL2-encapsulated,
// batched sendmmsg) at a shaped rate, for `monitor --live` or the live
// e2e test on the other side (DESIGN.md §10):
//
//   ./flood_lab --send PORT|HOST:PORT [--send-pps N]
//               [--mode constant|burst|ramp|chaos] [--truth-out FILE]
//               [--send-days N] [--send-seed S] [--send-max-packets N]
//
// --truth-out writes the scenario's planned-attack ledger as NDJSON so
// the receiving side can score its detections against ground truth.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "asdb/registry.hpp"
#include "net/live/sender.hpp"
#include "net/record_batch.hpp"
#include "obs/health.hpp"
#include "obs/http/admin.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tsdb.hpp"
#include "scanner/deployment.hpp"
#include "server/replay.hpp"
#include "telescope/generator.hpp"
#include "telescope/ground_truth_io.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace quicsand;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// --send mode: stream a telescope scenario over loopback UDP at a
/// shaped rate and (optionally) write the ground-truth ledger.
int run_send(const util::HostPort& target, double pps,
             net::live::RateMode mode, int days, std::uint64_t seed,
             std::uint64_t max_packets, const std::string& truth_out) {
  const auto registry = asdb::AsRegistry::synthetic({}, seed);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, seed);
  // Mirror monitor's scenario shape so both ends of the loopback pair
  // agree on what "a day of telescope traffic" means.
  auto config = telescope::ScenarioConfig::april2021(days > 0 ? days : 1,
                                                     seed);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 18};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.quic_attacks_per_day = 40;
  config.attacks.common_attacks_per_day = 0;
  telescope::TelescopeGenerator generator(config, registry, deployment);

  net::live::LiveSenderConfig sender_config;
  sender_config.host = target.host;
  sender_config.port = target.port;
  sender_config.pps = pps;
  sender_config.mode = mode;
  sender_config.seed = seed;
  net::live::LiveSender sender(sender_config);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::cout << "sending scenario to udp://" << target.host << ":"
            << target.port << " at " << pps << " pps ("
            << net::live::rate_mode_name(mode) << ")" << std::endl;

  // The generator refills the sender's RecordBatch in place: no
  // per-packet RawPacket copy between production and the socket.
  std::uint64_t produced = 0;
  const auto stats = sender.send_batches(
      [&](net::RecordBatch& batch) {
        if (max_packets > 0 && produced >= max_packets) return false;
        if (generator.next_batch(batch) == 0) return false;
        if (max_packets > 0 && produced + batch.size() > max_packets) {
          batch.truncate(static_cast<std::size_t>(max_packets - produced));
        }
        produced += batch.size();
        return true;
      },
      &g_stop);
  if (stats.sent == 0 && produced == 0 && !sender.last_error().empty()) {
    std::cerr << "cannot send to udp://" << target.host << ":" << target.port
              << ": " << sender.last_error() << "\n";
    return 2;
  }

  std::cout << "sent " << stats.sent << " datagrams in "
            << util::fmt(stats.elapsed_s, 2) << " s ("
            << util::fmt(stats.achieved_pps, 0) << " pps achieved";
  if (stats.send_failures > 0) {
    std::cout << ", " << stats.send_failures << " send failures";
  }
  std::cout << ")" << std::endl;

  if (!truth_out.empty()) {
    const auto& truth = generator.ground_truth();
    if (!telescope::write_ground_truth_ndjson_file(truth_out, truth)) {
      std::cerr << "cannot write " << truth_out << "\n";
      return 2;
    }
    std::cout << truth.attacks.size() << " planned attacks written to "
              << truth_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerConfig server;
  server::ReplayConfig replay;
  replay.pps = 1000;
  replay.packets = 100000;
  std::string dump_path;
  std::optional<util::HostPort> listen;
  std::uint64_t serve_for_s = 0;  // 0 = until SIGINT/SIGTERM
  std::optional<util::HostPort> send;
  double send_pps = 50000;
  net::live::RateMode send_mode = net::live::RateMode::kConstant;
  int send_days = 1;
  std::uint64_t send_seed = 5;
  std::uint64_t send_max_packets = 0;  // 0 = the whole scenario
  std::string truth_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--pps") {
      replay.pps = util::require_f64("--pps", value());
    } else if (arg == "--packets") {
      replay.packets = util::require_u64("--packets", value());
    } else if (arg == "--workers") {
      server.workers = util::require_int("--workers", value());
    } else if (arg == "--retry") {
      server.retry_enabled = true;
    } else if (arg == "--hold") {
      server.handshake_hold = util::require_i64("--hold", value()) * util::kSecond;
    } else if (arg == "--dump-pcap") {
      dump_path = value();
    } else if (arg == "--listen") {
      listen = util::require_host_port("--listen", value());
    } else if (arg == "--serve-for") {
      serve_for_s = util::require_u64("--serve-for", value());
    } else if (arg == "--send") {
      send = util::require_listen_address("--send", value());
    } else if (arg == "--send-pps") {
      send_pps = util::require_f64("--send-pps", value());
    } else if (arg == "--mode") {
      const std::string name = value();
      if (const auto mode = net::live::parse_rate_mode(name)) {
        send_mode = *mode;
      } else {
        std::cerr << "invalid value for --mode: '" << name
                  << "' (expected constant|burst|ramp|chaos)\n";
        return 2;
      }
    } else if (arg == "--send-days") {
      send_days = util::require_int("--send-days", value());
    } else if (arg == "--send-seed") {
      send_seed = util::require_u64("--send-seed", value());
    } else if (arg == "--send-max-packets") {
      send_max_packets = util::require_u64("--send-max-packets", value());
    } else if (arg == "--truth-out") {
      truth_out = value();
    } else {
      std::cerr << "usage: flood_lab [--pps N] [--packets N] [--workers N]"
                   " [--retry] [--hold SECONDS] [--dump-pcap FILE]"
                   " [--listen HOST:PORT] [--serve-for SECONDS]\n"
                   "       flood_lab --send PORT|HOST:PORT [--send-pps N]"
                   " [--mode constant|burst|ramp|chaos] [--truth-out FILE]"
                   " [--send-days N] [--send-seed S]"
                   " [--send-max-packets N]\n";
      return 2;
    }
  }

  if (send) {
    return run_send(*send, send_pps, send_mode, send_days, send_seed,
                    send_max_packets, truth_out);
  }

  obs::MetricsRegistry metrics;
  obs::Health health;
  obs::TimeSeriesStore tsdb;
  obs::Sampler sampler([&] {
    obs::SamplerConfig config;
    config.metrics = &metrics;
    config.store = &tsdb;
    return config;
  }());
  obs::http::AdminServer admin([&] {
    obs::http::AdminOptions options;
    options.http.host = listen ? listen->host : "127.0.0.1";
    options.http.port = listen ? listen->port : 0;
    options.metrics = &metrics;
    options.health = &health;
    options.tsdb = &tsdb;
    return options;
  }());
  if (listen) {
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    replay.obs.metrics = &metrics;
    replay.obs.health = &health;
    if (!admin.start()) {
      std::cerr << "cannot listen on " << listen->host << ":" << listen->port
                << ": " << admin.last_error() << "\n";
      return 2;
    }
    std::cout << "admin endpoint on http://" << listen->host << ":"
              << admin.port() << "/ (metrics, healthz, stats, tsdb, dash)"
              << std::endl;
    sampler.start();
  }

  std::cout << "replaying " << replay.packets << " client Initials at "
            << replay.pps << " pps against " << server.workers
            << " worker(s), " << server.connections_per_worker
            << " conns/worker, RETRY "
            << (server.retry_enabled ? "on" : "off") << "\n";

  if (!dump_path.empty()) {
    const auto written = server::dump_recording_pcap(replay, dump_path, 1000);
    std::cout << "dumped the first " << written
              << " recorded Initials to " << dump_path << "\n";
  }

  const auto result = server::run_replay(server, replay);
  const auto& stats = result.stats;
  util::Table table({"metric", "value"});
  table.add_row({"client requests", std::to_string(stats.client_requests)});
  table.add_row({"server responses", std::to_string(stats.server_responses)});
  table.add_row({"handshakes accepted", std::to_string(stats.accepted)});
  table.add_row({"retries sent", std::to_string(stats.retries_sent)});
  table.add_row({"dropped: no connection slot",
                 std::to_string(stats.dropped_no_slot)});
  table.add_row({"dropped: rx queue", std::to_string(stats.dropped_rx_queue)});
  table.add_row({"peak concurrent connections",
                 std::to_string(stats.peak_connections)});
  table.add_row({"service availability",
                 util::pct(stats.availability(), 1)});
  table.add_row({"extra round trip", result.extra_rtt ? "yes" : "no"});
  table.print(std::cout);

  if (!server.retry_enabled && stats.availability() < 0.5) {
    std::cout << "\nhint: rerun with --retry to see the stateless "
                 "mitigation hold 100% availability\n";
  }

  if (listen) {
    std::cout << "serving until "
              << (serve_for_s > 0 ? "--serve-for elapses" : "SIGINT/SIGTERM")
              << std::endl;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(serve_for_s);
    while (!g_stop.load() &&
           (serve_for_s == 0 ||
            std::chrono::steady_clock::now() < deadline)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    sampler.stop();
    admin.stop();
    std::cout << "admin endpoint stopped\n";
  }
  return 0;
}
