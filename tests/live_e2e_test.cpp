// Ground-truth loopback e2e: a full telescope day (research scans,
// botnet probes, misconfig noise, QUIC + TCP/ICMP floods) streamed over
// real UDP sockets through the live capture path, scored against the
// generator's planned-attack ledger.
//
// The pipeline under test is exactly `monitor --live`:
//
//   flood_lab-style sender (sendmmsg, QSL2 frames)
//     -> LiveReceiver (recvmmsg, shard-by-source, drop-oldest rings)
//     -> per-shard Classifier -> ShardedOnlineDetector
//
// Assertions: sender throughput (the harness must be able to stress the
// receiver, not trickle at it, and must not outrun its pacing target),
// exact packet accounting (sent == delivered + ring drops + kernel
// drops), the source -> shard partition, per-stage latency histograms
// that add up, metric export of the drop counters and batch sizes, and
// precision/recall floors against ground truth.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "core/online_shards.hpp"
#include "net/live/frame.hpp"
#include "net/live/receiver.hpp"
#include "net/live/sender.hpp"
#include "net/live/socket.hpp"
#include "obs/metrics.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "telescope/scoring.hpp"
#include "util/sharded_counter.hpp"

// Sanitizer instrumentation costs an order of magnitude of throughput;
// keep the correctness assertions at full strength but relax the rate
// floor so the tsan/asan presets can run this test too.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define QUICSAND_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define QUICSAND_SANITIZED 1
#endif
#endif

namespace quicsand {
namespace {

constexpr std::size_t kShards = 4;
#if defined(QUICSAND_SANITIZED)
constexpr double kSendRateFloor = 20000.0;
#else
constexpr double kSendRateFloor = 100000.0;
#endif
constexpr double kSendRateTarget = 150000.0;

telescope::ScenarioConfig mixed_scenario(std::uint64_t seed) {
  // Mirrors the differential-oracle scenario: scans and floods mixed,
  // small enough telescope that one day stays in the low hundreds of
  // thousands of packets.
  auto scenario = telescope::ScenarioConfig::april2021(1, seed);
  scenario.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  scenario.attacks.quic_attacks_per_day = 40;
  scenario.attacks.common_attacks_per_day = 120;
  scenario.botnet.sessions_per_day = 200;
  scenario.misconfig.sessions_per_day = 150;
  return scenario;
}

/// Sends `count` copies of a minimal IPv4 header (enough for the
/// receiver's source-sharding peek) at scenario time 0.
net::live::SendStats send_minimal_datagrams(net::live::LiveSender& sender,
                                            std::size_t count) {
  std::vector<std::uint8_t> datagram(28, 0);
  datagram[0] = 0x45;
  datagram[12] = 192;
  return sender.send_batches([&](net::RecordBatch& batch) {
    while (count > 0 && batch.try_append(util::Timestamp{0}, datagram)) {
      --count;
    }
    return count > 0;
  });
}

TEST(LiveE2E, MixedScanAndFloodOverLoopback) {
  const std::uint64_t seed = 11;
  const auto registry = asdb::AsRegistry::synthetic({}, seed);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, seed);
  const auto scenario = mixed_scenario(seed);
  telescope::TelescopeGenerator generator(scenario, registry, deployment);

  // Pre-materialize the scenario so the sender measures socket
  // throughput, not generator throughput.
  std::vector<net::RawPacket> packets;
  generator.generate(
      [&](const net::RawPacket& packet) { packets.push_back(packet); });
  ASSERT_GT(packets.size(), 50000u) << "scenario unexpectedly small";

  obs::MetricsRegistry metrics;

  core::ShardedOnlineDetectorConfig detector_config;
  detector_config.shards = kShards;
  detector_config.detector.obs.metrics = &metrics;
  // Wall-clock source on: every alert must then carry an end-to-end
  // detection latency anchored at its first packet's QSL2 send stamp.
  detector_config.detector.wall_clock = net::live::wall_clock_us;
  core::ShardedOnlineDetector detector(detector_config);

  std::vector<std::unique_ptr<core::Classifier>> classifiers;
  for (std::size_t i = 0; i < kShards; ++i) {
    classifiers.push_back(
        std::make_unique<core::Classifier>(core::ClassifierConfig{}));
  }

  net::live::LiveReceiverConfig receiver_config;
  receiver_config.port = 0;
  receiver_config.shards = kShards;
  // Sized so ring drops stay incidental: the detector tolerates loss,
  // but the recall floor below should reflect detection quality, not
  // backpressure tuning.
  receiver_config.ring_capacity = std::size_t{1} << 17;
  receiver_config.rcvbuf_bytes = std::size_t{1} << 22;
  receiver_config.obs.metrics = &metrics;
  net::live::LiveReceiver receiver(receiver_config);
  std::atomic<std::uint64_t> misrouted{0};
  if (!receiver.start([&](std::size_t shard, const net::RawPacket& packet,
                          const net::live::DatagramTiming& timing) {
        // Shards partition sources with util::shard_of, the partition
        // ParallelPipeline uses.
        const auto src = net::live::quick_ipv4_source(packet.data);
        if (src && util::shard_of(*src, kShards) != shard) ++misrouted;
        if (const auto record = classifiers[shard]->classify(packet)) {
          const core::IngestTiming ingest{timing.send_wall_us,
                                          timing.recv_wall_us};
          detector.consume(shard, *record, &ingest);
        }
      })) {
    GTEST_SKIP() << "loopback sockets unavailable: " << receiver.last_error();
  }
  ASSERT_NE(receiver.port(), 0);

  net::live::LiveSenderConfig sender_config;
  sender_config.port = receiver.port();
  sender_config.pps = kSendRateTarget;
  sender_config.mode = net::live::RateMode::kConstant;
  net::live::LiveSender sender(sender_config);
  std::size_t cursor = 0;
  const auto stats = sender.send_batches([&](net::RecordBatch& batch) {
    while (cursor < packets.size() &&
           batch.try_append(packets[cursor].timestamp, packets[cursor].data)) {
      ++cursor;
    }
    return cursor < packets.size();
  });

  ASSERT_TRUE(sender.last_error().empty()) << sender.last_error();
  ASSERT_EQ(stats.send_failures, 0u);
  ASSERT_EQ(stats.sent, packets.size());
  // This floor doubles as the latency-sampling overhead gate: the
  // receiver runs with the default 1-in-64 deterministic sample and the
  // full path must still sustain 100k pps on loopback.
  EXPECT_GE(stats.achieved_pps, kSendRateFloor)
      << "harness too slow to stress the receiver: " << stats.achieved_pps
      << " pps over " << stats.elapsed_s << " s";
  // The pacer starts with zero credit, so a slow runner can only lower
  // the rate; running ahead of the target is a pacing bug.
  EXPECT_LE(stats.achieved_pps, 1.05 * kSendRateTarget);

  // Every datagram the kernel did not drop must surface in received();
  // give the receiver a moment to drain the socket, then stop (which
  // drains the rings through the sinks).
  for (int i = 0; i < 2000; ++i) {
    if (receiver.received() + receiver.dropped_kernel() >= stats.sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  receiver.stop();

  // The accounting invariant, exactly: nothing lost without a counter.
  EXPECT_EQ(receiver.received() + receiver.dropped_kernel(), stats.sent);
  EXPECT_EQ(receiver.delivered() + receiver.dropped_ring() +
                receiver.dropped_kernel(),
            stats.sent)
      << "delivered=" << receiver.delivered()
      << " dropped_ring=" << receiver.dropped_ring()
      << " dropped_kernel=" << receiver.dropped_kernel();
  EXPECT_EQ(receiver.undecodable(), 0u)
      << "synthetic scenario datagrams must all decode";
  EXPECT_EQ(misrouted.load(), 0u) << "datagrams on the wrong source shard";

  // The drop counters must be exported through the metrics registry.
  EXPECT_EQ(metrics.counter("live.received_packets").value(),
            receiver.received());
  // One batch-size sample per non-empty recvmmsg: the sizes add up to
  // what was received, and none exceeds the batch capacity.
  const auto batches = metrics.histogram("live.batch_packets").snapshot();
  EXPECT_EQ(batches.sum, receiver.received());
  EXPECT_GE(batches.count, 1u);
  EXPECT_LE(batches.max, net::live::ReceiveBatch::kMax);
  EXPECT_EQ(metrics.counter("live.dropped_packets").value(),
            receiver.dropped_ring() + receiver.dropped_kernel());
  EXPECT_EQ(metrics.counter("live.delivered_packets").value(),
            receiver.delivered());

  const auto& attacks = detector.finish();
  ASSERT_GT(attacks.size(), 5u) << "too few detections to score";

  // Stage latency histograms: the 1-in-64 deterministic sample must
  // have populated every stage, with QSL2 send stamps anchoring wire
  // and e2e. Quantiles are sane for a loopback hop (well under a
  // minute) and ordered: a packet's e2e covers its queue wait.
  const auto wire = metrics.histogram("live.latency.wire_us").snapshot();
  const auto ring = metrics.histogram("live.latency.ring_us").snapshot();
  const auto process = metrics.histogram("live.latency.process_us").snapshot();
  const auto e2e = metrics.histogram("live.latency.e2e_us").snapshot();
  EXPECT_GT(wire.count, 100u);
  EXPECT_GT(ring.count, 100u);
  EXPECT_GT(process.count, 100u);
  EXPECT_GT(e2e.count, 100u);
  // All four stages are recorded at pop for the same sampled datagrams
  // (every one QSL2-stamped), each a difference of the same integer
  // stamps, so the stage sums add up to the e2e sum exactly.
  EXPECT_EQ(wire.count, e2e.count);
  EXPECT_EQ(ring.count, e2e.count);
  EXPECT_EQ(process.count, e2e.count);
  EXPECT_EQ(wire.sum + ring.sum + process.sum, e2e.sum);
  EXPECT_LT(wire.p99, 60'000'000u);
  EXPECT_LT(e2e.p99, 60'000'000u);
  // Pointwise e2e >= ring wait implies quantile domination; the 7%
  // slack covers both representatives' +-3.125% bucket error.
  EXPECT_GE(static_cast<double>(e2e.p99) * 1.07,
            static_cast<double>(ring.p50))
      << "e2e cannot undercut the queue wait";

  // Detection latency: the wall-clock source was wired, every consume
  // carried ingest stamps, so every alert recorded a detect latency.
  const auto detect = metrics.histogram("live.detect_latency_us").snapshot();
  EXPECT_GT(detect.count, 0u);
  EXPECT_LE(detect.count, detector.alerts_fired());
  EXPECT_LT(detect.p99, 120'000'000u);

  // Pipeline-lag watermarks: per-shard skew gauges and ring high-water
  // marks exist for every shard (the high-water mark may be zero only
  // if that shard never got a packet, which the shuffle rules out).
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const auto prefix = "live.shard" + std::to_string(shard);
    EXPECT_GE(metrics.gauge(prefix + ".lag_us").value(), 0);
    EXPECT_GT(metrics.gauge(prefix + ".ring_high_water").value(), 0);
  }

  const auto& truth = generator.ground_truth();
  const auto planned = truth.quic_attacks();
  ASSERT_FALSE(planned.empty());

  // Precision over every planned QUIC attack.
  const auto all = telescope::score_detections(attacks, planned);
  EXPECT_GE(all.precision(), 0.95)
      << all.matched_detected << "/" << all.detected << " detections matched";

  // Recall over the comfortably-detectable subset.
  const core::DosThresholds thresholds;
  std::vector<const telescope::PlannedAttack*> strong;
  for (const auto* plan : planned) {
    if (telescope::comfortably_detectable(*plan, thresholds)) {
      strong.push_back(plan);
    }
  }
  ASSERT_GT(strong.size(), 3u);
  const auto strong_score = telescope::score_detections(attacks, strong);
  EXPECT_GE(strong_score.recall(), 0.9)
      << strong_score.matched_planned << "/" << strong_score.planned
      << " comfortably-detectable attacks found";
}

TEST(LiveE2E, BareDatagramsFallBackToArrivalClock) {
  // Without QSL2 encapsulation the receiver stamps arrival time; the
  // datagrams must still flow through to the sinks with sane timestamps.
  net::live::LiveReceiverConfig receiver_config;
  receiver_config.port = 0;
  receiver_config.shards = 1;
  net::live::LiveReceiver receiver(receiver_config);
  std::atomic<std::uint64_t> sunk{0};
  util::Timestamp first_seen{};
  std::atomic<std::int64_t> max_send_stamp{-1};
  if (!receiver.start([&](std::size_t, const net::RawPacket& packet,
                          const net::live::DatagramTiming& timing) {
        if (sunk.fetch_add(1) == 0) first_seen = packet.timestamp;
        // Bare payloads carry no QSL2 send stamp; the receiver must
        // report it as absent, never invent one.
        if (timing.send_wall_us > max_send_stamp.load()) {
          max_send_stamp.store(timing.send_wall_us);
        }
      })) {
    GTEST_SKIP() << "loopback sockets unavailable: " << receiver.last_error();
  }

  net::live::LiveSenderConfig sender_config;
  sender_config.port = receiver.port();
  sender_config.pps = 1000;
  sender_config.encapsulate = false;
  net::live::LiveSender sender(sender_config);
  const auto stats = send_minimal_datagrams(sender, 32);
  ASSERT_EQ(stats.sent, 32u);
  EXPECT_LE(stats.achieved_pps, 1.05 * sender_config.pps);

  for (int i = 0; i < 2000 && sunk.load() < 32; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  receiver.stop();
  ASSERT_EQ(sunk.load(), 32u);
  // Arrival timestamps come from the wall clock: after 2020, not the
  // epoch the (zeroed) scenario timestamp would suggest.
  EXPECT_GT(first_seen, util::Timestamp{1577836800LL * 1000000LL});
  EXPECT_EQ(receiver.undecodable(), 0u);
  EXPECT_EQ(max_send_stamp.load(), -1);
}

TEST(LiveE2E, RingDropsKeepStageHistogramsConsistent) {
  // A 256-slot ring behind a sink that stalls until the sender is done:
  // the ring keeps only the newest datagrams and drop-oldest evicts the
  // rest, sampled ones included. An evicted datagram must leave no stage
  // sample behind: the four stage histograms describe the same sampled
  // datagrams and still add up.
  obs::MetricsRegistry metrics;
  net::live::LiveReceiverConfig receiver_config;
  receiver_config.port = 0;
  receiver_config.shards = 1;
  receiver_config.ring_capacity = 256;
  receiver_config.obs.metrics = &metrics;
  net::live::LiveReceiver receiver(receiver_config);
  std::atomic<bool> release{false};
  if (!receiver.start([&](std::size_t, const net::RawPacket&,
                          const net::live::DatagramTiming&) {
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      })) {
    GTEST_SKIP() << "loopback sockets unavailable: " << receiver.last_error();
  }

  net::live::LiveSenderConfig sender_config;
  sender_config.port = receiver.port();
  sender_config.pps = 50000;
  net::live::LiveSender sender(sender_config);
  const auto stats = send_minimal_datagrams(sender, 5000);
  for (int i = 0; i < 2000; ++i) {
    if (receiver.received() + receiver.dropped_kernel() >= stats.sent) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.store(true);
  receiver.stop();

  ASSERT_EQ(stats.sent, 5000u);
  ASSERT_GT(receiver.dropped_ring(), 0u) << "the sink kept up: no evictions";
  EXPECT_EQ(receiver.delivered() + receiver.dropped_ring() +
                receiver.dropped_kernel(),
            stats.sent);
  const auto wire = metrics.histogram("live.latency.wire_us").snapshot();
  const auto ring = metrics.histogram("live.latency.ring_us").snapshot();
  const auto process = metrics.histogram("live.latency.process_us").snapshot();
  const auto e2e = metrics.histogram("live.latency.e2e_us").snapshot();
  EXPECT_GT(e2e.count, 0u);
  EXPECT_EQ(wire.count, e2e.count);
  EXPECT_EQ(ring.count, e2e.count);
  EXPECT_EQ(process.count, e2e.count);
  EXPECT_EQ(wire.sum + ring.sum + process.sum, e2e.sum);
}

}  // namespace
}  // namespace quicsand
