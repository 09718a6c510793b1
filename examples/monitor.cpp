// monitor — the paper's motivation made operational (§1: "it will be
// crucial to monitor such attack attempts early"). Streams a telescope
// scenario through the ONLINE detector and prints alerts the moment a
// backscatter session crosses the DoS thresholds, long before the
// session ends — the early-warning view an operator would watch.
//
// Alongside the alert stream it prints a periodic metrics snapshot (one
// line per simulated interval) drawn from the obs registry, and can
// export the full state for dashboards:
//
//   ./monitor [--days N] [--seed S] [--snapshot-every SECONDS]
//             [--metrics-out FILE]   JSON metrics snapshot on exit
//             [--prom-out FILE]      Prometheus text exposition on exit
//             [--events-out FILE]    NDJSON detector event log
//             [--listen HOST:PORT]   live admin endpoint (/metrics,
//                                    /healthz, /events, /tsdb/query,
//                                    /dash, ...); port 0 picks one and
//                                    prints it
//             [--serve-for SECONDS]  in listen mode, exit after this
//                                    long instead of waiting for ^C
//             [--flight-out FILE]    write the flight-recorder NDJSON
//                                    bundle (last ~2 min of 1 s samples
//                                    + events) on exit — including
//                                    SIGINT/SIGTERM shutdown
//
// Whenever an admin endpoint or live capture is active, a 1 s obs
// sampler retains every registry metric in an in-process TSDB
// (multi-resolution ring buffers, see DESIGN.md §11) served at
// /tsdb/series, /tsdb/query and the /dash sparkline dashboard.
//
// Live capture mode replaces the built-in scenario with real datagrams
// from a UDP socket (see DESIGN.md §10; flood_lab --send is the matching
// traffic source):
//
//   ./monitor --live PORT|HOST:PORT [--shards N] [--serve-for SECONDS]
//             [--listen ...] [--metrics-out ...] [--events-out ...]
//
// Prints "live capture on udp://HOST:PORT" (flushed) once the socket is
// bound — with port 0 that line is how scripts learn the real port —
// then alerts as they fire, until SIGINT/SIGTERM (or --serve-for).
//
// Both modes share one obs stack, one admin endpoint, one set of
// exports and one ShardedOnlineDetector: a single shard for the
// scenario, one per receiver shard (--shards) for live capture.
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "asdb/registry.hpp"
#include "core/classifier.hpp"
#include "core/online_shards.hpp"
#include "net/live/frame.hpp"
#include "net/live/receiver.hpp"
#include "net/record_batch.hpp"
#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/http/admin.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tsdb.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace quicsand;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// Sleeps until SIGINT/SIGTERM or, when `serve_for_s` > 0, until that
/// many seconds have passed.
void wait_for_stop(std::uint64_t serve_for_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(serve_for_s);
  while (!g_stop.load() &&
         (serve_for_s == 0 ||
          std::chrono::steady_clock::now() < deadline)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Live capture mode: socket -> per-shard classifier -> detector shard,
/// until a signal or --serve-for. False when the socket cannot be bound.
bool run_live(const util::HostPort& endpoint, std::size_t shards,
              std::uint64_t serve_for_s, obs::MetricsRegistry& metrics,
              obs::Health& health, core::ShardedOnlineDetector& detector) {
  std::vector<std::unique_ptr<core::Classifier>> classifiers;
  classifiers.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    classifiers.push_back(std::make_unique<core::Classifier>(
        core::ClassifierConfig{}));
  }

  net::live::LiveReceiverConfig receiver_config;
  receiver_config.host = endpoint.host;
  receiver_config.port = endpoint.port;
  receiver_config.shards = shards;
  receiver_config.obs.metrics = &metrics;
  receiver_config.obs.health = &health;
  net::live::LiveReceiver receiver(receiver_config);
  if (!receiver.start([&](std::size_t shard, const net::RawPacket& packet,
                          const net::live::DatagramTiming& timing) {
        if (const auto record = classifiers[shard]->classify(packet)) {
          // net cannot depend on core, so the live DatagramTiming is
          // converted to the detector's IngestTiming at this boundary.
          const core::IngestTiming ingest{timing.send_wall_us,
                                          timing.recv_wall_us};
          detector.consume(shard, *record, &ingest);
        }
      })) {
    std::cerr << "cannot capture on udp://" << endpoint.host << ":"
              << endpoint.port << ": " << receiver.last_error() << "\n";
    return false;
  }
  std::cout << "live capture on udp://" << endpoint.host << ":"
            << receiver.port() << " (" << shards << " shard(s))"
            << std::endl;
  std::cout << "stopping on "
            << (serve_for_s > 0 ? "--serve-for elapse or SIGINT/SIGTERM"
                                : "SIGINT/SIGTERM")
            << std::endl;
  wait_for_stop(serve_for_s);
  receiver.stop();
  detector.finish();

  std::cout << "\nreceived " << receiver.received() << " datagrams, "
            << receiver.delivered() << " analyzed, " << receiver.dropped_ring()
            << " dropped in rings, " << receiver.dropped_kernel()
            << " dropped by the kernel, " << receiver.undecodable()
            << " undecodable\n";
  return true;
}

/// Scenario mode: streams `days` of a generated telescope month through
/// the detector (one shard), counting them in `packets_counter` and
/// printing a [metrics] line every `snapshot_every_s` of simulated time.
/// `days` 0 streams nothing.
void run_scenario(int days, std::uint64_t seed,
                  std::uint64_t snapshot_every_s,
                  const asdb::AsRegistry& registry,
                  obs::MetricsRegistry& metrics, obs::Counter& packets_counter,
                  obs::Health& health, core::ShardedOnlineDetector& detector) {
  const auto deployment = scanner::Deployment::synthetic(registry, {}, seed);
  // --days 0 skips ingest entirely (serve-only mode for smoke tests);
  // the scenario builder itself requires at least one day.
  auto config =
      telescope::ScenarioConfig::april2021(days > 0 ? days : 1, seed);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 18};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.quic_attacks_per_day = 40;
  config.attacks.common_attacks_per_day = 0;
  telescope::TelescopeGenerator generator(config, registry, deployment);
  core::Classifier classifier({});

  auto& ingest_health = health.component("telescope_generator");
  ingest_health.set_ready(true);
  const util::Duration snapshot_every = snapshot_every_s * util::kSecond;
  util::Timestamp next_snapshot{};
  auto print_snapshot = [&](util::Timestamp now) {
    std::cout << util::format_utc(now) << "  [metrics] packets="
              << packets_counter.value()
              << " records=" << metrics.counter("online.records").value()
              << " open_sessions=" << detector.open_sessions()
              << " alerts=" << detector.alerts_fired()
              << " attacks_closed=" << detector.attacks_closed()
              << " evicted=" << detector.sessions_evicted() << "\n";
  };

  std::uint64_t streamed = 0;
  net::RecordBatch batch;
  net::RawPacket packet;
  bool stopped = false;
  while (!stopped && days > 0 && generator.next_batch(batch) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (g_stop.load()) {
        stopped = true;
        break;
      }
      const auto view = batch.view(i);
      packet.timestamp = view.timestamp;
      packet.data.assign(view.data.begin(), view.data.end());
      packets_counter.add();
      if ((++streamed & 0x3FF) == 0) ingest_health.heartbeat();
      if (snapshot_every_s > 0) {
        if (next_snapshot == util::Timestamp{}) {
          next_snapshot = packet.timestamp + snapshot_every;
        } else if (packet.timestamp >= next_snapshot) {
          print_snapshot(packet.timestamp);
          while (next_snapshot <= packet.timestamp) {
            next_snapshot += snapshot_every;
          }
        }
      }
      if (const auto record = classifier.classify(packet)) {
        detector.consume(0, *record);
      }
    }
  }
  detector.finish();
  ingest_health.heartbeat();
  ingest_health.set_idle(true);  // scenario drained: quiet, not stale

  std::cout << "\nprocessed " << packets_counter.value() << " packets over "
            << days << " day(s)\n";
}

}  // namespace

int main(int argc, char** argv) {
  int days = 1;
  std::uint64_t seed = 5;
  std::uint64_t snapshot_every_s = 6 * 60 * 60;  // simulated time
  std::string metrics_out;
  std::string prom_out;
  std::string events_out;
  std::string flight_out;
  std::optional<util::HostPort> listen;
  std::uint64_t serve_for_s = 0;  // 0 = until SIGINT/SIGTERM
  std::optional<util::HostPort> live;
  int shards = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--days") {
      days = util::require_int("--days", value());
    } else if (arg == "--seed") {
      seed = util::require_u64("--seed", value());
    } else if (arg == "--snapshot-every") {
      snapshot_every_s = util::require_u64("--snapshot-every", value());
    } else if (arg == "--metrics-out") {
      metrics_out = value();
    } else if (arg == "--prom-out") {
      prom_out = value();
    } else if (arg == "--events-out") {
      events_out = value();
    } else if (arg == "--flight-out") {
      flight_out = value();
    } else if (arg == "--listen") {
      listen = util::require_host_port("--listen", value());
    } else if (arg == "--serve-for") {
      serve_for_s = util::require_u64("--serve-for", value());
    } else if (arg == "--live") {
      live = util::require_listen_address("--live", value());
    } else if (arg == "--shards") {
      shards = util::require_int("--shards", value());
      if (shards <= 0) {
        std::cerr << "invalid value for --shards: must be positive\n";
        return 2;
      }
    } else {
      std::cerr << "usage: monitor [--days N] [--seed S]"
                   " [--snapshot-every SECONDS] [--metrics-out FILE]"
                   " [--prom-out FILE] [--events-out FILE]"
                   " [--flight-out FILE] [--listen HOST:PORT]"
                   " [--serve-for SECONDS] [--live PORT|HOST:PORT]"
                   " [--shards N]\n";
      return 2;
    }
  }

  const auto registry = asdb::AsRegistry::synthetic({}, seed);
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  obs::Health health;
  obs::TimeSeriesStore tsdb;
  obs::Sampler sampler([&] {
    obs::SamplerConfig config;
    config.metrics = &metrics;
    config.store = &tsdb;
    config.events = &events;
    return config;
  }());
  obs::FlightRecorder flight([&] {
    obs::FlightRecorderConfig config;
    config.store = &tsdb;
    return config;
  }());

  core::ShardedOnlineDetectorConfig detector_config;
  detector_config.shards = live ? static_cast<std::size_t>(shards) : 1;
  detector_config.detector.obs.metrics = &metrics;
  detector_config.detector.obs.events = &events;
  detector_config.detector.obs.health = &health;
  // Live alerts measure wire -> callback detection latency against the
  // QSL2 stamps the receiver threads through; scenario runs stay
  // deterministic without a wall clock.
  if (live) detector_config.detector.wall_clock = net::live::wall_clock_us;
  core::ShardedOnlineDetector detector(detector_config);
  detector.set_on_alert([&](const core::DetectedAttack& attack) {
    const auto* info = registry.lookup(attack.victim);
    // Alerts are the point of a monitor: flush each one immediately.
    std::cout << util::format_utc(attack.end) << "  ALERT  victim "
              << attack.victim.to_string() << " ("
              << (info != nullptr ? info->name : "?") << ")  "
              << attack.packets.count() << " pkts in "
              << util::format_duration(attack.end - attack.start)
              << ", running at " << util::fmt(attack.peak_pps.count(), 2)
              << " max pps" << std::endl;
  });
  detector.set_on_attack([&](const core::DetectedAttack& attack) {
    std::cout << util::format_utc(attack.end) << "  ended  victim "
              << attack.victim.to_string() << "  total "
              << attack.packets.count() << " pkts over "
              << util::format_duration(attack.end - attack.start) << "\n";
  });

  // Exists before the admin endpoint opens, so its first scrape lists it.
  obs::Counter* packets_counter =
      live ? nullptr
           : &metrics.counter("monitor.packets", "telescope packets streamed");

  // The admin server (when requested) serves live state for the whole
  // run, including the scenario's post-ingest serve window.
  obs::http::AdminServer admin([&] {
    obs::http::AdminOptions options;
    options.http.host = listen ? listen->host : "127.0.0.1";
    options.http.port = listen ? listen->port : 0;
    options.metrics = &metrics;
    options.health = &health;
    options.events = &events;
    options.tsdb = &tsdb;
    options.flight = &flight;
    return options;
  }());
  if (live || listen) {
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
  }
  if (listen) {
    if (!admin.start()) {
      std::cerr << "cannot listen on " << listen->host << ":" << listen->port
                << ": " << admin.last_error() << "\n";
      return 2;
    }
    // Port 0 binds an ephemeral port; print the real one (flushed, so
    // scripts that parse it see the line before any curl).
    std::cout << "admin endpoint on http://" << listen->host << ":"
              << admin.port() << "/ (metrics, healthz, events, tsdb, dash)"
              << std::endl;
  }
  // History only matters when somebody can read it: an admin endpoint
  // (/dash, /tsdb/*) or a --flight-out dump on exit. Live capture always
  // retains it, so a post-incident dump is never empty; batch-only
  // scenario runs skip the sampler thread entirely.
  if (live || listen || !flight_out.empty()) sampler.start();

  if (live) {
    if (!run_live(*live, detector_config.shards, serve_for_s, metrics,
                  health, detector)) {
      return 2;
    }
  } else {
    run_scenario(days, seed, snapshot_every_s, registry, metrics,
                 *packets_counter, health, detector);
  }
  std::cout << "alerts: " << detector.alerts_fired() << ", attacks closed: "
            << detector.attacks_closed() << "\n";
  std::cout << "mean time from attack start to alert: "
            << util::fmt(detector.mean_alert_latency_s(), 0)
            << " s (vs waiting for session end + batch analysis)\n";

  // Each export says where it went; a failed write exits 2.
  const auto written = [](bool ok, const std::string& what,
                          const std::string& path) {
    if (ok) {
      std::cout << what << " written to " << path << "\n";
    } else {
      std::cerr << "cannot write " << path << "\n";
    }
    return ok;
  };
  if (!metrics_out.empty() &&
      !written(metrics.write_json_file(metrics_out), "metrics snapshot",
               metrics_out)) {
    return 2;
  }
  if (!prom_out.empty()) {
    std::ofstream out(prom_out, std::ios::trunc);
    if (out) out << metrics.to_prometheus();
    if (!written(static_cast<bool>(out), "prometheus exposition", prom_out)) {
      return 2;
    }
  }
  if (!events_out.empty() &&
      !written(events.write_ndjson_file(events_out),
               std::to_string(events.events().size()) + " detector events",
               events_out)) {
    return 2;
  }

  if (listen && !live) {
    // Keep serving live state until a signal (or --serve-for elapses);
    // operators curl /metrics and /events against the finished run.
    std::cout << "serving until "
              << (serve_for_s > 0 ? "--serve-for elapses" : "SIGINT/SIGTERM")
              << std::endl;
    wait_for_stop(serve_for_s);
  }
  // Written on every exit path, including SIGINT/SIGTERM ending the
  // capture or serve window, so an operator killing a wedged monitor
  // still gets the incident bundle.
  sampler.stop();  // final sample: the dump includes the last tail
  const bool flight_ok =
      flight_out.empty() || written(flight.dump_file(flight_out),
                                    "flight recorder bundle", flight_out);
  if (listen) {
    admin.stop();
    std::cout << "admin endpoint stopped\n";
  }
  if (!flight_ok) return 2;
  // Someone watching (live capture, admin endpoint) makes a quiet run a
  // clean exit; a scenario without a single alert is a failure.
  return live || listen || detector.alerts_fired() > 0 ? 0 : 1;
}
