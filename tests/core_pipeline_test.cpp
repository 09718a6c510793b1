// Focused pipeline tests: hourly binning bounds, classifier corner
// cases, hostile input through consume() (late timestamps, packets
// larger than a batch arena), the accessors on an empty pipeline, and
// the custom-threshold accessor.
#include <gtest/gtest.h>

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
  EXPECT_EQ(pipeline.records().size(), 5u);  // ...but still recorded
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
  const auto& record = pipeline.records().front();
  EXPECT_EQ(record.kind_counts[static_cast<std::size_t>(
                quic::QuicPacketKind::kGquic)],
            1);
}

TEST(PipelineTest, EmptyPipelineAccessors) {
  ParallelPipeline pipeline(one_day_options(), kShards);
  EXPECT_TRUE(pipeline.records().empty());
  EXPECT_TRUE(pipeline.request_sessions(util::kMinute).empty());
  const auto analysis = pipeline.analyze_attacks();
  EXPECT_TRUE(analysis.quic_attacks.empty());
  EXPECT_TRUE(analysis.common_attacks.empty());
  const util::Duration timeouts[] = {util::kMinute};
  const auto sweep = pipeline.session_timeout_sweep(timeouts);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep[0].second, 0u);
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
    const auto records = pipeline.records();
    ASSERT_EQ(records.size(), 3u);
    // One source, one shard: arrival order survives the detour.
    EXPECT_EQ(records[1].timestamp, kT0 + util::kSecond);
    EXPECT_EQ(records[2].timestamp, kT0 + 2 * util::kSecond);
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
