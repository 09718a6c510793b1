// Focused pipeline tests: hourly binning bounds, classifier corner
// cases, hostile input through consume() (late timestamps, packets
// larger than a batch arena), the per-shard session groups against the
// serial reference, the accessors on an empty pipeline, the
// custom-threshold accessor, and the one timeout the sessions exist at.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/parallel_pipeline.hpp"
#include "net/headers.hpp"
#include "obs/metrics.hpp"
#include "quic/gquic.hpp"
#include "quic/packets.hpp"
#include "util/rng.hpp"

namespace quicsand::core {
namespace {

constexpr util::Timestamp kT0 = util::kApril2021Start;

util::Rng& rng() {
  static util::Rng instance(7);
  return instance;
}

net::RawPacket quic_response_at(util::Timestamp t) {
  const auto ctx = quic::HandshakeContext::random(1, rng());
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 0, 9);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  return {t, net::build_udp(ip, 443, 40000,
                            quic::build_server_initial_handshake(
                                ctx, rng(), quic::CryptoFidelity::kFast))};
}

PipelineOptions one_day_options() {
  PipelineOptions options;
  options.window_start = kT0;
  options.days = 1;
  return options;
}

constexpr std::size_t kShards = 2;

TEST(PipelineTest, HourlyBinsRespectWindowBounds) {
  ParallelPipeline pipeline(one_day_options(), kShards);
  pipeline.consume(quic_response_at(kT0));                      // hour 0
  pipeline.consume(quic_response_at(kT0 + 5 * util::kHour));    // hour 5
  pipeline.consume(quic_response_at(kT0 + 23 * util::kHour));   // hour 23
  pipeline.consume(quic_response_at(kT0 + 25 * util::kHour));   // outside
  pipeline.consume(quic_response_at(kT0 - util::kHour));        // outside

  const auto& hourly = pipeline.hourly();
  ASSERT_EQ(hourly.quic_responses.size(), 24u);
  EXPECT_EQ(hourly.quic_responses[0], 1u);
  EXPECT_EQ(hourly.quic_responses[5], 1u);
  EXPECT_EQ(hourly.quic_responses[23], 1u);
  std::uint64_t total = 0;
  for (const auto v : hourly.quic_responses) total += v;
  EXPECT_EQ(total, 3u);  // out-of-window packets not binned...
  EXPECT_EQ(pipeline.stats().kept, 5u);  // ...but still kept
}

TEST(PipelineTest, SourceAndDestPort443IsResponse) {
  // The paper finds no packets with both ports 443; ours classifies such
  // a packet as a response deterministically.
  ParallelPipeline pipeline(one_day_options(), kShards);
  const auto ctx = quic::HandshakeContext::random(1, rng());
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 0, 9);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  pipeline.consume({kT0, net::build_udp(
                             ip, 443, 443,
                             quic::build_client_initial(
                                 ctx, "x", rng(),
                                 quic::CryptoFidelity::kFast))});
  EXPECT_EQ(pipeline.stats().of(TrafficClass::kQuicResponse), 1u);
  EXPECT_EQ(pipeline.stats().of(TrafficClass::kQuicRequest), 0u);
}

TEST(PipelineTest, GquicBackscatterCountsAsQuicResponse) {
  ParallelPipeline pipeline(one_day_options(), kShards);
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 0, 9);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  pipeline.consume({kT0, net::build_udp(
                             ip, 443, 50000,
                             quic::build_gquic_server_response(
                                 quic::ConnectionId(rng().bytes(8)), 3, 200,
                                 rng()))});
  EXPECT_EQ(pipeline.stats().of(TrafficClass::kQuicResponse), 1u);
  const auto sessions =
      pipeline.response_sessions(pipeline.options().session_timeout);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions.front().kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kGquic)],
            1u);
}

TEST(PipelineTest, EmptyPipelineAccessors) {
  ParallelPipeline pipeline(one_day_options(), kShards);
  EXPECT_EQ(pipeline.stats().kept, 0u);
  EXPECT_EQ(pipeline.late_records(), 0u);
  EXPECT_TRUE(
      pipeline.request_sessions(pipeline.options().session_timeout).empty());
  const auto analysis = pipeline.analyze_attacks();
  EXPECT_TRUE(analysis.quic_attacks.empty());
  EXPECT_TRUE(analysis.common_attacks.empty());
  const util::Duration timeouts[] = {util::kMinute};
  const auto sweep = pipeline.session_timeout_sweep(timeouts);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep[0].second, 0u);
}

TEST(PipelineTest, SessionsExistAtTheConfiguredTimeoutOnly) {
  auto options = one_day_options();
  options.session_timeout = util::kMinute;
  ParallelPipeline pipeline(options, kShards);
  pipeline.consume(quic_response_at(kT0));
  EXPECT_EQ(pipeline.response_sessions(util::kMinute).size(), 1u);
  EXPECT_THROW((void)pipeline.request_sessions(5 * util::kMinute),
               std::invalid_argument);
  EXPECT_THROW((void)pipeline.response_sessions(2 * util::kMinute),
               std::invalid_argument);
  EXPECT_THROW((void)pipeline.common_sessions(util::Duration{}),
               std::invalid_argument);
}

TEST(PipelineTest, AnalyzeWithCustomThresholds) {
  ParallelPipeline pipeline(one_day_options(), kShards);
  // 30 response packets over 2 minutes from one victim.
  for (int i = 0; i < 30; ++i) {
    pipeline.consume(quic_response_at(kT0 + i * 4 * util::kSecond));
  }
  const auto strict = pipeline.analyze_attacks(DosThresholds{}.weighted(5));
  EXPECT_TRUE(strict.quic_attacks.empty());
  const auto relaxed =
      pipeline.analyze_attacks(DosThresholds{}.weighted(0.2));
  EXPECT_EQ(relaxed.quic_attacks.size(), 1u);
}

TEST(PipelineTest, LateTimestampMatchesReferenceAtOneAndFourShards) {
  // The last packet is two minutes older than its session's start.
  std::vector<net::RawPacket> packets;
  for (int i = 0; i < 30; ++i) {
    packets.push_back(
        quic_response_at(kT0 + (5 * util::kMinute) + (i * util::kSecond)));
  }
  packets.push_back(quic_response_at(kT0 + 3 * util::kMinute));
  Classifier classifier({});
  std::vector<PacketRecord> records;
  for (const auto& packet : packets) {
    records.push_back(*classifier.classify(packet));
  }
  const auto expected =
      build_sessions(records, 5 * util::kMinute, quic_response_filter());
  ASSERT_EQ(expected.size(), 1u);
  EXPECT_EQ(expected[0].packets.count(), 31u);
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ParallelPipeline pipeline(one_day_options(), shards);
    for (const auto& packet : packets) pipeline.consume(packet);
    EXPECT_EQ(pipeline.response_sessions(5 * util::kMinute), expected);
    EXPECT_EQ(pipeline.analyze_attacks().response_sessions, expected);
    EXPECT_EQ(pipeline.late_records(), 1u);
  }
}

/// One crafted datagram from `source`: a QUIC request, a QUIC
/// response, a TCP SYN-ACK, an ICMP echo reply or a TCP SYN (kept, but
/// read by no analysis), by `kind` 0-4.
net::RawPacket crafted_at(util::Timestamp t, net::Ipv4Address source,
                          int kind) {
  net::Ipv4Header ip;
  ip.src = source;
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  const auto ctx = quic::HandshakeContext::random(1, rng());
  constexpr auto kFast = quic::CryptoFidelity::kFast;
  constexpr std::uint8_t kPayload[8] = {};
  switch (kind) {
    case 0:
      return {t, net::build_udp(ip, 40000, 443,
                                quic::build_client_initial(ctx, "x", rng(),
                                                           kFast))};
    case 1:
      return {t, net::build_udp(ip, 443, 40000,
                                quic::build_server_initial_handshake(
                                    ctx, rng(), kFast))};
    case 2:
      return {t, net::build_tcp(ip, {80, 40000, 1, 2,
                                     net::TcpFlags::kSyn | net::TcpFlags::kAck,
                                     {}})};
    case 3:
      return {t, net::build_icmp(ip, {0, 0, kPayload})};
    default:
      return {t,
              net::build_tcp(ip, {40000, 80, 1, 0, net::TcpFlags::kSyn, {}})};
  }
}

TEST(PipelineTest, RecordGroupsMatchReferenceAtEveryShardCount) {
  // Twelve sources, each cycling QUIC requests, QUIC responses, TCP
  // SYN-ACKs and ICMP echo replies every 250 ms for 45-210 s; odd
  // sources pause for 150 s after 45 s. Every third source sends one
  // record of each kind mid-stream that is stamped 20 s before it
  // started, so each group holds records older than their session start:
  // 16 late records.
  std::vector<std::pair<util::Timestamp, net::RawPacket>> arrivals;
  for (std::uint8_t i = 1; i <= 12; ++i) {
    const auto source = net::Ipv4Address::from_octets(142, 250, i, 9);
    const auto start = kT0 + i * 7 * util::kSecond;
    const int steps = 4 * (30 + 15 * i);
    for (int k = 0; k < steps; ++k) {
      auto t = start + k * util::kSecond / 4;
      if (i % 2 == 1 && k >= 180) t += 150 * util::kSecond;
      arrivals.emplace_back(t, crafted_at(t, source, k == 0 ? 4 : k % 4));
    }
    if (i % 3 == 0) {
      const auto middle = start + steps * util::kSecond / 8;
      for (int kind = 0; kind < 4; ++kind) {
        arrivals.emplace_back(
            middle, crafted_at(start - 20 * util::kSecond, source, kind));
      }
    }
  }
  std::stable_sort(
      arrivals.begin(), arrivals.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  // The serial reference: the kept records in arrival order.
  Classifier classifier({});
  std::vector<PacketRecord> records;
  for (const auto& [arrival, packet] : arrivals) {
    const auto record = classifier.classify(packet);
    if (record && keep_for_analysis(*record)) records.push_back(*record);
  }
  ASSERT_EQ(records.size(), arrivals.size());
  const std::vector<util::Duration> timeouts = {
      util::kMinute, 2 * util::kMinute, 5 * util::kMinute,
      std::numeric_limits<util::Duration>::max()};
  const auto sweep = timeout_sweep(records, timeouts, sanitized_quic_filter());
  const auto timeout = one_day_options().session_timeout;
  const auto responses =
      build_sessions(records, timeout, quic_response_filter());
  const auto common =
      build_sessions(records, timeout, common_backscatter_filter());
  const auto quic_attacks = detect_attacks(responses, DosThresholds{});
  const auto common_attacks = detect_attacks(common, DosThresholds{});
  ASSERT_FALSE(quic_attacks.empty());
  ASSERT_FALSE(common_attacks.empty());
  ASSERT_LT(common_attacks.size(), common.size());
  ASSERT_GT(
      build_sessions(records, util::kMinute, quic_request_filter()).size(),
      build_sessions(records, 5 * util::kMinute, quic_request_filter()).size());

  // Small batches, so each shard absorbs many batches in turn.
  const auto ingest = [&arrivals](ParallelPipeline& pipeline) {
    const auto small_batch = [] { return net::RecordBatch(200, 200 * 1500); };
    auto batch = small_batch();
    for (const auto& [arrival, packet] : arrivals) {
      if (batch.try_append(packet.timestamp, packet.data)) continue;
      pipeline.consume_batch(std::exchange(batch, small_batch()));
      ASSERT_TRUE(batch.try_append(packet.timestamp, packet.data));
    }
    pipeline.consume_batch(std::move(batch));
  };
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(shards);
    // Sessions exist at one timeout per pipeline.
    for (const auto t : {util::kMinute, 5 * util::kMinute}) {
      auto options = one_day_options();
      options.session_timeout = t;
      ParallelPipeline pipeline(options, shards);
      ingest(pipeline);
      EXPECT_EQ(pipeline.stats().kept, records.size());
      EXPECT_EQ(pipeline.request_sessions(t),
                build_sessions(records, t, quic_request_filter()));
      EXPECT_EQ(pipeline.response_sessions(t),
                build_sessions(records, t, quic_response_filter()));
      EXPECT_EQ(pipeline.common_sessions(t),
                build_sessions(records, t, common_backscatter_filter()));
    }
    obs::MetricsRegistry metrics;
    auto options = one_day_options();
    options.obs.metrics = &metrics;
    ParallelPipeline pipeline(options, shards);
    ingest(pipeline);
    EXPECT_EQ(pipeline.late_records(), 16u);
    EXPECT_EQ(metrics.counter("pipeline.late_records").value(), 16u);
    EXPECT_EQ(pipeline.session_timeout_sweep(timeouts), sweep);
    const auto analysis = pipeline.analyze_attacks();
    EXPECT_EQ(analysis.response_sessions, responses);
    EXPECT_EQ(analysis.common_sessions, common);
    EXPECT_EQ(analysis.quic_attacks, quic_attacks);
    EXPECT_EQ(analysis.common_attacks, common_attacks);
  }
}

TEST(PipelineTest, OversizedPacketIsClassifiedThroughConsume) {
  // Larger than a whole batch arena; pcapng admits blocks up to 16 MiB.
  auto big = quic_response_at(kT0 + util::kSecond);
  big.data.resize(net::RecordBatch::kDefaultArenaBytes + 1, 0);
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    ParallelPipeline pipeline(one_day_options(), shards);
    pipeline.consume(quic_response_at(kT0));
    pipeline.consume(big);
    pipeline.consume(quic_response_at(kT0 + 2 * util::kSecond));
    EXPECT_EQ(pipeline.stats().of(TrafficClass::kQuicResponse), 3u);
    EXPECT_EQ(pipeline.stats().kept, 3u);
    // One source, one shard: arrival order survives the detour, so the
    // three packets make one session that no record reached late.
    const auto sessions =
        pipeline.response_sessions(pipeline.options().session_timeout);
    ASSERT_EQ(sessions.size(), 1u);
    EXPECT_EQ(sessions[0].packets.count(), 3u);
    EXPECT_EQ(sessions[0].start, kT0);
    EXPECT_EQ(sessions[0].end, kT0 + 2 * util::kSecond);
    EXPECT_EQ(pipeline.late_records(), 0u);
  }
}

TEST(PipelineTest, MetricsTrackBatchesAndShards) {
  obs::MetricsRegistry metrics;
  auto options = one_day_options();
  options.obs.metrics = &metrics;
  ParallelPipeline pipeline(options, 3);
  for (int i = 0; i < 10; ++i) {
    pipeline.consume(quic_response_at(kT0 + i * util::kSecond));
  }
  EXPECT_EQ(metrics.gauge("parallel.pending_packets").value(), 10);
  pipeline.finish();
  EXPECT_EQ(metrics.gauge("parallel.pending_packets").value(), 0);
  EXPECT_EQ(metrics.counter("pipeline.packets").value(), 10u);
  EXPECT_EQ(metrics.counter("pipeline.records").value(), 10u);
  EXPECT_EQ(metrics.counter("parallel.batches").value(), 1u);
  EXPECT_EQ(metrics.histogram("parallel.classify_batch_us").count(), 1u);
  // finish() observes one record count per shard.
  const auto& per_shard = metrics.histogram("parallel.shard_records");
  EXPECT_EQ(per_shard.count(), 3u);
  EXPECT_EQ(per_shard.sum(), 10u);
}

TEST(SessionTest, DominantVersionWithNoVersions) {
  Session session;
  EXPECT_EQ(session.dominant_version(), 0u);
  session.version_counts[1] = 3;
  session.version_counts[0xff00001d] = 5;
  EXPECT_EQ(session.dominant_version(), 0xff00001du);
}

TEST(DetectedAttackTest, OverlapPredicate) {
  DetectedAttack a;
  a.start = kT0;
  a.end = kT0 + util::kMinute;
  DetectedAttack b;
  b.start = kT0 + (util::kMinute) - (util::kSecond);
  b.end = kT0 + util::kHour;
  EXPECT_TRUE(a.overlaps(b, util::kSecond));
  EXPECT_FALSE(a.overlaps(b, 2 * util::kSecond));
  b.start = a.end;
  EXPECT_FALSE(a.overlaps(b, util::kSecond));
}

}  // namespace
}  // namespace quicsand::core
