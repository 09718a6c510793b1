// live_loopback: LiveSender streams QSL2 frames over UDP loopback to a
// LiveReceiver; each shard worker runs a Classifier and its
// ShardedOnlineDetector shard. Open loop at 200k offered pps: the sender
// keeps its schedule whatever the receiver does.
//
// Each pass has a fresh receiver and detector and sends a prefix of the
// set-up stream, never past its end, so scenario time never runs
// backwards. Passes alternate between 2 shards and 1 shard. Every pass
// times each packet from its QSL2 send stamp to the return of
// detector.consume, each alert from the send stamp of the packet that
// crossed the thresholds to the alert callback, and the receiver
// callback per shard. The callback time per packet bounds the rate the
// shard workers sustain: on loopback the sender saturates first
// (at 250k-450k pps, varying with thread placement), so the delivered
// rate of an unpaced pass would measure the sender, not the sensor.
//
// Every pass waits (bounded) until delivered + dropped == sent before
// stopping the receiver; any shortfall counts as failed. A pass without
// loss must yield the same attacks as an offline replay of the sent
// prefix through a 1-shard detector. Traced runs also climb a fixed
// offered-rate ladder for live.max_pps.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "core/online_shards.hpp"
#include "inputs.hpp"
#include "net/live/frame.hpp"
#include "net/live/receiver.hpp"
#include "net/live/sender.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qs::core::DetectedAttack;
using qs::obs::Span;
using qs::obs::Tracer;

constexpr std::size_t kStreamPackets = 300000;
constexpr std::size_t kShards = 2;
constexpr double kRatePps = 200000;
constexpr double kLadderStepSeconds = 0.5;
constexpr double kLadder[] = {100e3, 200e3, 300e3, 400e3,
                              500e3, 600e3, 800e3};
constexpr double kAccountingWaitSeconds = 3.0;

/// Send stamp of the packet the current thread's shard is consuming:
/// the alert callback runs synchronously inside that consume().
thread_local std::int64_t t_current_send_us = -1;

struct alignas(64) ShardState {
  std::uint64_t callback_ns = 0;
  std::vector<float> delays_us;
};

struct LivePassConfig {
  double pps = kRatePps;
  std::size_t shards = kShards;
  std::size_t packets = kStreamPackets;
};

struct LivePass {
  bool sockets = true;
  std::size_t shards = 0;
  qs::net::live::SendStats send;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ring = 0;
  std::uint64_t dropped_kernel = 0;
  std::uint64_t shortfall = 0;  ///< sent - delivered - dropped after stop
  double accounted_s = 0;       ///< first send -> all sent accounted for
  double peak_rss_mb = 0;
  std::uint64_t ring_high_water = 0;
  std::uint64_t callback_ns = 0;  ///< summed over shards
  std::vector<double> delays_us;
  std::vector<double> alert_delays_ms;
  std::vector<DetectedAttack> attacks;

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_ring + dropped_kernel;
  }
  [[nodiscard]] bool lossless() const {
    return dropped() == 0 && shortfall == 0 && delivered == send.sent;
  }
  /// Datagrams per busy second of a shard worker: delivered over the
  /// callback time summed over shards.
  [[nodiscard]] double pkts_per_busy_s() const {
    return callback_ns > 0 ? static_cast<double>(delivered) * 1e9 /
                                 static_cast<double>(callback_ns)
                           : 0;
  }
  [[nodiscard]] double callback_ns_per_pkt() const {
    return delivered > 0 ? static_cast<double>(callback_ns) /
                               static_cast<double>(delivered)
                         : 0;
  }
  [[nodiscard]] double busy_share() const {
    return accounted_s > 0 ? static_cast<double>(callback_ns) / 1e9 /
                                 (accounted_s * static_cast<double>(shards))
                           : 0;
  }
};

LivePass live_pass(const std::vector<qs::net::RawPacket>& stream,
                   const qs::core::PipelineOptions& options,
                   const LivePassConfig& config, Tracer* tracer) {
  LivePass pass;
  qs::obs::MetricsRegistry metrics;
  qs::core::ShardedOnlineDetectorConfig detector_config;
  detector_config.shards = config.shards;
  detector_config.detector.session_timeout = options.session_timeout;
  detector_config.detector.thresholds = options.thresholds;
  qs::core::ShardedOnlineDetector detector(detector_config);
  std::vector<std::unique_ptr<qs::core::Classifier>> classifiers;
  std::vector<ShardState> states(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) {
    classifiers.push_back(std::make_unique<qs::core::Classifier>(
        qs::core::ClassifierConfig{options.research_prefixes}));
    states[i].delays_us.reserve(config.packets);
  }
  detector.set_on_alert([&](const DetectedAttack&) {
    if (t_current_send_us < 0) return;
    pass.alert_delays_ms.push_back(
        static_cast<double>(qs::net::live::wall_clock_us() -
                            t_current_send_us) /
        1e3);
  });

  qs::net::live::LiveReceiverConfig receiver_config;
  receiver_config.shards = config.shards;
  receiver_config.ring_capacity = std::size_t{1} << 16;
  receiver_config.rcvbuf_bytes = std::size_t{1} << 22;
  receiver_config.obs.metrics = &metrics;
  qs::net::live::LiveReceiver receiver(receiver_config);

  const double rss_before = begin_memory_window();
  const bool started = receiver.start(
      [&](std::size_t shard, const qs::net::RawPacket& packet,
          const qs::net::live::DatagramTiming& timing) {
        auto& state = states[shard];
        const auto start = Clock::now();
        t_current_send_us = timing.send_wall_us;
        if (const auto record = classifiers[shard]->classify(packet)) {
          detector.consume(shard, *record);
        }
        if (timing.send_wall_us >= 0) {
          state.delays_us.push_back(static_cast<float>(
              qs::net::live::wall_clock_us() - timing.send_wall_us));
        }
        state.callback_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
      });
  if (!started) {
    std::fprintf(stderr, "live_loopback: cannot bind loopback socket: %s\n",
                 receiver.last_error().c_str());
    pass.sockets = false;
    return pass;
  }

  qs::net::live::LiveSenderConfig sender_config;
  sender_config.port = receiver.port();
  sender_config.pps = config.pps;
  qs::net::live::LiveSender sender(sender_config);
  const std::size_t budget = std::min(config.packets, stream.size());
  std::size_t cursor = 0;
  const auto send_start = Clock::now();
  {
    Span span(tracer, "live.send_batches");
    pass.send = sender.send_batches([&](qs::net::RecordBatch& batch) {
      while (cursor < budget) {
        const auto& packet = stream[cursor];
        if (!batch.try_append(packet.timestamp, packet.data)) break;
        ++cursor;
      }
      return cursor < budget;
    });
  }
  {
    Span span(tracer, "live.wait_accounted");
    const auto wait_start = Clock::now();
    while (receiver.delivered() + receiver.dropped_total() < pass.send.sent &&
           seconds_since(wait_start) < kAccountingWaitSeconds) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  pass.accounted_s = seconds_since(send_start);
  {
    Span span(tracer, "live.receiver_stop");
    receiver.stop();
  }
  pass.peak_rss_mb = peak_rss_mb() - rss_before;
  {
    Span span(tracer, "core.sharded_online_finish");
    pass.attacks = detector.finish();
  }
  pass.delivered = receiver.delivered();
  pass.dropped_ring = receiver.dropped_ring();
  pass.dropped_kernel = receiver.dropped_kernel();
  const auto accounted = pass.delivered + pass.dropped();
  pass.shortfall = pass.send.sent > accounted ? pass.send.sent - accounted : 0;
  for (const auto& [name, value] : metrics.gauge_snapshot()) {
    if (name.find("ring_high_water") != std::string::npos) {
      pass.ring_high_water =
          std::max(pass.ring_high_water, static_cast<std::uint64_t>(value));
    }
  }
  pass.shards = config.shards;
  for (const auto& state : states) {
    pass.callback_ns += state.callback_ns;
    pass.delays_us.insert(pass.delays_us.end(), state.delays_us.begin(),
                          state.delays_us.end());
  }
  return pass;
}

/// The attacks an offline replay of the first `count` stream packets
/// through a 1-shard detector finds: the oracle for a lossless pass.
struct Replay {
  std::vector<DetectedAttack> attacks;
  std::uint64_t records = 0;
  std::uint64_t consume_ns = 0;
  std::size_t open_sessions_peak = 0;
};

Replay offline_replay(const std::vector<qs::net::RawPacket>& stream,
                      std::size_t count,
                      const qs::core::PipelineOptions& options,
                      Tracer* tracer) {
  Span span(tracer, "core.online_replay");
  Replay replay;
  qs::core::Classifier classifier({options.research_prefixes});
  std::vector<qs::core::PacketRecord> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count && i < stream.size(); ++i) {
    if (auto record = classifier.classify(stream[i])) {
      records.push_back(*record);
    }
  }
  qs::core::ShardedOnlineDetectorConfig config;
  config.shards = 1;
  config.detector.session_timeout = options.session_timeout;
  config.detector.thresholds = options.thresholds;
  qs::core::ShardedOnlineDetector detector(config);
  LayerTime consume;
  {
    LayerScope scope(tracer, "core.online_consume", consume);
    for (std::size_t i = 0; i < records.size(); ++i) {
      detector.consume(0, records[i]);
      if ((i & 1023) == 0) {
        replay.open_sessions_peak =
            std::max(replay.open_sessions_peak, detector.open_sessions());
      }
    }
  }
  replay.attacks = detector.finish();
  replay.records = records.size();
  replay.consume_ns = consume.ns;
  return replay;
}

struct LiveSetup {
  std::unique_ptr<World> world;
  qs::telescope::ScenarioConfig config;
  std::vector<qs::net::RawPacket> stream;
};

void set_up(std::uint64_t seed, LiveSetup& setup) {
  setup.stream.clear();
  setup.stream.shrink_to_fit();
  setup.world = make_world();
  setup.config = flood_scenario(seed);
  qs::telescope::TelescopeGenerator generator(
      setup.config, setup.world->registry, setup.world->deployment);
  setup.stream.reserve(kStreamPackets);
  qs::net::RecordBatch batch;
  while (setup.stream.size() < kStreamPackets &&
         generator.next_batch(batch) > 0) {
    for (std::size_t i = 0;
         i < batch.size() && setup.stream.size() < kStreamPackets; ++i) {
      const auto view = batch.view(i);
      setup.stream.emplace_back(
          view.timestamp,
          std::vector<std::uint8_t>(view.data.begin(), view.data.end()));
    }
  }
}

}  // namespace

RunResult run_live_loopback(const Args& args, Tracer* tracer) {
  RunResult result;
  std::vector<double> setup_s;
  LiveSetup setup;
  for (const auto first = Clock::now();
       setup_s.size() < kSetupRepeats ||
       seconds_since(first) < kSetupSeconds;) {
    const double start = process_cpu_s();
    set_up(args.seed, setup);
    setup_s.push_back(process_cpu_s() - start);
  }
  const auto options = pipeline_options(setup.config, *setup.world);
  const auto& stream = setup.stream;
  std::printf("input: %zu datagrams (QSL2 frames), %zu receiver shards\n",
              stream.size(), kShards);

  // Oracle results by prefix length; every pass sends a prefix.
  std::map<std::uint64_t, Replay> replays;
  auto replay_of = [&](std::uint64_t count) -> const Replay& {
    auto it = replays.find(count);
    if (it == replays.end()) {
      it = replays
               .emplace(count, offline_replay(stream, count, options, tracer))
               .first;
    }
    return it->second;
  };
  bool no_sockets = false;
  auto run_checked = [&](const char* name, const LivePassConfig& config,
                         Tracer* pass_tracer) {
    auto pass = live_pass(stream, options, config, pass_tracer);
    if (!pass.sockets) {
      no_sockets = true;
      return pass;
    }
    result.attempted += pass.send.sent + pass.send.send_failures;
    if (pass.send.send_failures > 0) {
      result.mismatch(std::string(name) + ": send failures",
                      pass.send.send_failures);
    }
    if (pass.shortfall > 0) {
      result.mismatch(std::string(name) + ": " +
                          std::to_string(pass.shortfall) +
                          " datagrams neither delivered nor counted dropped",
                      pass.shortfall);
    }
    if (pass.lossless() && pass.attacks != replay_of(pass.send.sent).attacks) {
      result.mismatch(std::string(name) +
                          ": attacks differ from the offline replay of the "
                          "sent prefix",
                      pass.send.sent);
    }
    return pass;
  };

  LivePassConfig sharded;
  LivePassConfig single;
  single.shards = 1;
  std::vector<LivePass> passes_n, passes_1;
  const auto start = Clock::now();
  if (args.trace) {
    // The offered-rate ladder: the highest rate that meets all three
    // limits before the first that does not.
    double max_pps = 0;
    for (const double rate : kLadder) {
      LivePassConfig step;
      step.pps = rate;
      step.packets = static_cast<std::size_t>(rate * kLadderStepSeconds);
      if (step.packets > stream.size()) break;
      const auto pass = run_checked("ladder", step, tracer);
      if (no_sockets) break;
      const double p99 = quantile(pass.delays_us, 0.99);
      const bool ok = static_cast<double>(pass.delivered) >=
                          0.999 * static_cast<double>(pass.send.sent) &&
                      pass.send.achieved_pps >= 0.99 * rate && p99 <= 10000.0;
      std::printf("ladder %6.0fk pps offered: achieved %8.0f, delivered "
                  "%llu/%llu, delay p99 %.0f us -> %s\n",
                  rate / 1e3, pass.send.achieved_pps,
                  static_cast<unsigned long long>(pass.delivered),
                  static_cast<unsigned long long>(pass.send.sent), p99,
                  ok ? "meets limits" : "fails");
      if (!ok) break;
      max_pps = rate;
    }
    result.add("live.max_pps", max_pps, "1/s");
  }
  std::vector<double> untraced_capacity;
  do {
    if (no_sockets) break;
    if (args.trace) {
      // Untraced twin of each traced pass: their capacity ratio is the
      // cost of the spans.
      untraced_capacity.push_back(
          run_checked("untraced 2-shard", sharded, nullptr).pkts_per_busy_s());
      passes_n.push_back(run_checked("traced 2-shard", sharded, tracer));
    } else {
      passes_n.push_back(run_checked("2-shard", sharded, nullptr));
      passes_1.push_back(run_checked("1-shard", single, nullptr));
    }
  } while (seconds_since(start) < args.seconds);
  if (no_sockets) {
    result.mismatch("no loopback sockets", 1);
    return result;
  }

  auto median_of = [&](auto&& value) {
    std::vector<double> values;
    for (const auto& pass : passes_n) values.push_back(value(pass));
    return median(values);
  };
  const double delay_p50 =
      median_of([](const LivePass& p) { return quantile(p.delays_us, 0.5); });
  const double delay_p99 =
      median_of([](const LivePass& p) { return quantile(p.delays_us, 0.99); });
  const double alert_p50 = median_of(
      [](const LivePass& p) { return quantile(p.alert_delays_ms, 0.5); });
  const double alert_p90 = median_of(
      [](const LivePass& p) { return quantile(p.alert_delays_ms, 0.9); });
  const auto& first = passes_n.front();
  std::printf(
      "%zu passes at %.0fk pps, 2 shards: sent %llu, delivered %llu, dropped "
      "%llu each (first pass); delay p50 %.1f us, p99 %.1f us; alert delay "
      "p50 %.3f ms, p90 %.3f ms over %zu alerts a pass (medians of passes)\n",
      passes_n.size(), kRatePps / 1e3,
      static_cast<unsigned long long>(first.send.sent),
      static_cast<unsigned long long>(first.delivered),
      static_cast<unsigned long long>(first.dropped()), delay_p50, delay_p99,
      alert_p50, alert_p90, first.alert_delays_ms.size());

  // Delays are per-layer metrics of traced runs and printed beside the
  // end-to-end ones otherwise.
  auto delay_metric = [&](const char* name, double value, const char* unit) {
    if (args.trace) {
      result.add(name, value, unit);
    } else {
      result.info(name, value, unit);
    }
  };
  delay_metric("live.delay_us.p50", delay_p50, "us");
  delay_metric("live.delay_us.p99", delay_p99, "us");
  delay_metric("live.alert_delay_ms.p50", alert_p50, "ms");
  delay_metric("live.alert_delay_ms.p90", alert_p90, "ms");
  result.info("live.alerts", static_cast<double>(first.alert_delays_ms.size()),
              "count");
  result.info("live.sent", static_cast<double>(first.send.sent), "count");
  result.info("live.delivered", static_cast<double>(first.delivered),
              "count");
  result.info("passes_per_shard_count", static_cast<double>(passes_n.size()),
              "count");

  auto median_over = [](const std::vector<LivePass>& passes, auto&& value) {
    std::vector<double> values;
    for (const auto& pass : passes) values.push_back(value(pass));
    return median(values);
  };
  const auto capacity_of = [](const LivePass& p) {
    return p.pkts_per_busy_s();
  };
  const double capacity = median_over(passes_n, capacity_of);
  if (!args.trace) {
    // As offline: the median pass for throughput, the largest for memory.
    result.add("setup_s", median(setup_s), "s");
    result.add("pkts_per_cpu_s", capacity, "1/s");
    result.add("pkts_per_cpu_s.1shard", median_over(passes_1, capacity_of),
               "1/s");
    double rss = 0;
    for (const auto& pass : passes_n) rss = std::max(rss, pass.peak_rss_mb);
    result.add("peak_rss_mb", rss, "MB");
    return result;
  }

  const auto& replay = replay_of(first.send.sent);
  std::uint64_t dropped_ring = 0, dropped_kernel = 0, high_water = 0;
  for (const auto& pass : passes_n) {
    dropped_ring = std::max(dropped_ring, pass.dropped_ring);
    dropped_kernel = std::max(dropped_kernel, pass.dropped_kernel);
    high_water = std::max(high_water, pass.ring_high_water);
  }
  result.add("core.online_ns_per_record",
             static_cast<double>(replay.consume_ns) /
                 static_cast<double>(std::max<std::uint64_t>(replay.records, 1)),
             "ns");
  result.add("core.online_open_sessions_peak",
             static_cast<double>(replay.open_sessions_peak), "count");
  result.add("live.callback_ns_per_pkt",
             median_of([](const LivePass& p) { return p.callback_ns_per_pkt(); }),
             "ns");
  result.add("live.shard_busy_share",
             median_of([](const LivePass& p) { return p.busy_share(); }),
             "ratio");
  result.add("live.dropped_ring", static_cast<double>(dropped_ring), "count");
  result.add("live.dropped_kernel", static_cast<double>(dropped_kernel),
             "count");
  result.add("live.ring_high_water", static_cast<double>(high_water), "count");
  result.add("live.sender_achieved_ratio",
             median_of([](const LivePass& p) { return p.send.achieved_pps; }) /
                 kRatePps,
             "ratio");
  result.add("obs.trace_overhead_share",
             median(untraced_capacity) / capacity - 1.0, "ratio");
  result.info("pkts_per_busy_s.traced", capacity, "1/s");
  result.info("pkts_per_busy_s.untraced", median(untraced_capacity), "1/s");
  return result;
}

}  // namespace perfbench
