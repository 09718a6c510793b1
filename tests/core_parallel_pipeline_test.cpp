// Differential harness: ParallelPipeline must produce byte-identical
// analysis products to a serial reference built here from the free
// functions (Classifier, bin_hourly, keep_for_analysis, build_sessions,
// detect_attacks, timeout_sweep) — hourly series, classifier stats,
// kept-record count, session lists, timeout sweep and detected attacks —
// for every shard count, including non-powers of two, and whatever order
// the workers finish their batches in (the sequencer stress test). Also
// exercises the ThreadPool and ShardedCounter primitives the engine is
// built on (run these under the `tsan` preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asdb/registry.hpp"
#include "core/parallel_pipeline.hpp"
#include "net/headers.hpp"
#include "quic/packets.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/rng.hpp"
#include "util/sharded_counter.hpp"
#include "util/thread_pool.hpp"

namespace quicsand::core {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(hits.size(), [&](std::size_t index, std::size_t worker) {
    ASSERT_LT(worker, pool.size());
    ++hits[index];
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&total](std::size_t) { ++total; });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsBecomesOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.submit([&ran](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++ran;
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ShardedCounterTest, MergedSumsAllRows) {
  util::ShardedCounter counter(3, 5);
  counter.add(0, 1);
  counter.add(1, 1, 4);
  counter.add(2, 1);
  counter.add(2, 4, 7);
  const auto merged = counter.merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[1], 6u);
  EXPECT_EQ(merged[4], 7u);
  EXPECT_EQ(merged[0] + merged[2] + merged[3], 0u);
}

TEST(ShardedCounterTest, ShardOfIsDeterministicAndInRange) {
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (std::uint32_t key = 0; key < 1000; ++key) {
      const auto s = util::shard_of(key, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, util::shard_of(key, shards));
    }
  }
  // The mix spreads consecutive IPs across shards rather than clumping.
  std::vector<std::size_t> counts(7, 0);
  for (std::uint32_t key = 0; key < 7000; ++key) {
    ++counts[util::shard_of(key, 7)];
  }
  for (const auto count : counts) EXPECT_GT(count, 500u);
}

const asdb::AsRegistry& test_registry() {
  static const auto instance = asdb::AsRegistry::synthetic({}, 2021);
  return instance;
}

const scanner::Deployment& test_deployment() {
  static const auto instance =
      scanner::Deployment::synthetic(test_registry(), {}, 2021);
  return instance;
}

struct TestScenario {
  std::vector<net::RawPacket> packets;
  PipelineOptions options;
};

/// One-day, small-telescope version of the paper's mixture, with the
/// research scanners kept in so the research hourly series and the
/// sanitization paths are exercised too.
const TestScenario& scenario() {
  static const TestScenario instance = [] {
    auto config = telescope::ScenarioConfig::april2021(1, 97);
    config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
    config.attacks.quic_attacks_per_day = 60;
    config.attacks.common_attacks_per_day = 150;
    config.botnet.sessions_per_day = 300;
    config.misconfig.sessions_per_day = 200;

    TestScenario scenario;
    scenario.options.window_start = config.start;
    scenario.options.days = config.days;
    scenario.options.research_prefixes.push_back(
        test_registry().prefixes_of(asdb::AsRegistry::kTumScanner).front());
    scenario.options.research_prefixes.push_back(
        test_registry().prefixes_of(asdb::AsRegistry::kRwthScanner).front());

    telescope::TelescopeGenerator generator(config, test_registry(),
                                            test_deployment());
    generator.generate([&](const net::RawPacket& packet) {
      scenario.packets.push_back(packet);
    });
    return scenario;
  }();
  return instance;
}

/// The serial reference: one Classifier over the packets in arrival
/// order, hourly bins and kept records collected by hand, and the
/// analyses run by the free functions over the whole record stream.
struct Reference {
  ClassifierStats stats;
  HourlySeries hourly;
  std::vector<PacketRecord> records;  ///< arrival order

  [[nodiscard]] std::vector<Session> sessions(util::Duration timeout,
                                              RecordFilter filter) const {
    return build_sessions(records, timeout, filter);
  }

  [[nodiscard]] AttackAnalysis attacks(const DosThresholds& thresholds,
                                       util::Duration timeout) const {
    AttackAnalysis analysis;
    analysis.response_sessions = sessions(timeout, quic_response_filter());
    analysis.common_sessions = sessions(timeout, common_backscatter_filter());
    analysis.quic_attacks =
        detect_attacks(analysis.response_sessions, thresholds);
    analysis.common_attacks =
        detect_attacks(analysis.common_sessions, thresholds);
    return analysis;
  }
};

const Reference& reference() {
  static const Reference instance = [] {
    const auto& options = scenario().options;
    const auto hours = static_cast<std::size_t>(options.days) * 24;
    Reference ref;
    for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
      ref.hourly.of(static_cast<HourlySlot>(slot)).assign(hours, 0);
    }
    Classifier classifier({options.research_prefixes});
    for (const auto& packet : scenario().packets) {
      const auto record = classifier.classify(packet);
      if (!record) continue;
      bin_hourly(*record, options.window_start, hours,
                 [&ref](HourlySlot slot, std::size_t hour) {
                   ++ref.hourly.of(slot)[hour];
                 });
      if (keep_for_analysis(*record)) ref.records.push_back(*record);
    }
    ref.stats = classifier.stats();
    return ref;
  }();
  return instance;
}

std::unique_ptr<ParallelPipeline> parallel_pipeline(
    std::size_t shards,
    util::Duration timeout = scenario().options.session_timeout) {
  auto options = scenario().options;
  options.session_timeout = timeout;
  auto pipeline = std::make_unique<ParallelPipeline>(options, shards);
  for (const auto& packet : scenario().packets) pipeline->consume(packet);
  pipeline->finish();
  return pipeline;
}

void expect_stats_equal(const ClassifierStats& a, const ClassifierStats& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.undecodable, b.undecodable);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.research, b.research);
  EXPECT_EQ(a.research_requests, b.research_requests);
  EXPECT_EQ(a.quic_port_rejects, b.quic_port_rejects);
  EXPECT_EQ(a.kept, b.kept);
}

constexpr std::size_t kShardCounts[] = {1, 2, 4, 7};

TEST(ParallelPipelineDifferentialTest, StatsHourlyAndRecordsMatchSerial) {
  const auto& ref = reference();
  ASSERT_FALSE(ref.records.empty());
  // Several classify batches are in flight even on the one-day scenario.
  ASSERT_GT(scenario().packets.size(), 8 * net::RecordBatch::kDefaultCapacity);
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    auto parallel = parallel_pipeline(shards);
    expect_stats_equal(parallel->stats(), ref.stats);
    EXPECT_EQ(parallel->hourly().research_quic, ref.hourly.research_quic);
    EXPECT_EQ(parallel->hourly().other_quic, ref.hourly.other_quic);
    EXPECT_EQ(parallel->hourly().quic_requests, ref.hourly.quic_requests);
    EXPECT_EQ(parallel->hourly().quic_responses, ref.hourly.quic_responses);
    // Every kept record was counted; none of them is held any more.
    EXPECT_EQ(parallel->stats().kept, ref.records.size());
  }
}

TEST(ParallelPipelineDifferentialTest, SessionListsMatchSerial) {
  const auto& ref = reference();
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    // Each pipeline sessionizes at its configured timeout only.
    for (const auto timeout : {util::kMinute, 5 * util::kMinute}) {
      auto parallel = parallel_pipeline(shards, timeout);
      EXPECT_EQ(parallel->request_sessions(timeout),
                ref.sessions(timeout, quic_request_filter()));
      EXPECT_EQ(parallel->response_sessions(timeout),
                ref.sessions(timeout, quic_response_filter()));
      EXPECT_EQ(parallel->common_sessions(timeout),
                ref.sessions(timeout, common_backscatter_filter()));
    }
  }
}

TEST(ParallelPipelineDifferentialTest, TimeoutSweepMatchesSerial) {
  std::vector<util::Duration> timeouts;
  for (const int minutes : {1, 2, 5, 10, 30, 60}) {
    timeouts.push_back(minutes * util::kMinute);
  }
  timeouts.push_back(std::numeric_limits<util::Duration>::max());
  const auto expected =
      timeout_sweep(reference().records, timeouts, sanitized_quic_filter());
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    EXPECT_EQ(parallel_pipeline(shards)->session_timeout_sweep(timeouts),
              expected);
  }
}

TEST(ParallelPipelineDifferentialTest, AttackAnalysisMatchesSerial) {
  const auto timeout = scenario().options.session_timeout;
  const auto expected = reference().attacks(DosThresholds{}, timeout);
  ASSERT_FALSE(expected.quic_attacks.empty());
  ASSERT_FALSE(expected.common_attacks.empty());
  // Weighted thresholds (the Figure 10 sweep) must agree as well.
  const auto strict = DosThresholds{}.weighted(0.5);
  const auto expected_strict = reference().attacks(strict, timeout);
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    auto parallel = parallel_pipeline(shards);
    const auto analysis = parallel->analyze_attacks();
    EXPECT_EQ(analysis.response_sessions, expected.response_sessions);
    EXPECT_EQ(analysis.common_sessions, expected.common_sessions);
    EXPECT_EQ(analysis.quic_attacks, expected.quic_attacks);
    EXPECT_EQ(analysis.common_attacks, expected.common_attacks);
    EXPECT_EQ(parallel->analyze_attacks(strict).quic_attacks,
              expected_strict.quic_attacks);
  }
}

TEST(ParallelPipelineDifferentialTest, OnlyResponseSessionsCarryDistinctState) {
  // Figure 9 reads the SCID, peer and peer-port sets and the version map
  // of response sessions only. A response session holds exactly its
  // source's response records in [start, end] (a source's sessions never
  // overlap in time); request and common sessions hold none of it.
  std::unordered_map<std::uint32_t, std::vector<PacketRecord>> responses;
  for (const auto& record : reference().records) {
    if (accepts(quic_response_filter(), record)) {
      responses[record.src.value()].push_back(record);
    }
  }
  const auto timeout = scenario().options.session_timeout;
  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    auto parallel = parallel_pipeline(shards);
    const auto analysis = parallel->analyze_attacks();
    ASSERT_FALSE(analysis.response_sessions.empty());
    std::size_t scids = 0;
    for (const auto& session : analysis.response_sessions) {
      Session expected;
      for (const auto& record : responses.at(session.source.value())) {
        if (record.timestamp < session.start ||
            record.timestamp > session.end) {
          continue;
        }
        if (record.has_scid) expected.scids.insert(record.scid_hash);
        expected.peers.insert(record.dst.value());
        expected.peer_ports.insert(
            (std::uint64_t{record.dst.value()} << 16) | record.dst_port);
        if (record.quic_version != 0) {
          ++expected.version_counts[record.quic_version];
        }
      }
      EXPECT_TRUE(session.scids == expected.scids &&
                  session.peers == expected.peers &&
                  session.peer_ports == expected.peer_ports &&
                  session.version_counts == expected.version_counts)
          << session.source.to_string();
      scids += session.scids.size();
    }
    EXPECT_GT(scids, 0u);

    const auto carrying = [](const std::vector<Session>& sessions) {
      return std::count_if(
          sessions.begin(), sessions.end(), [](const Session& s) {
            return !s.scids.empty() || !s.peers.empty() ||
                   !s.peer_ports.empty() || !s.version_counts.empty();
          });
    };
    const auto requests = parallel->request_sessions(timeout);
    ASSERT_FALSE(requests.empty());
    ASSERT_FALSE(analysis.common_sessions.empty());
    EXPECT_EQ(carrying(requests), 0);
    EXPECT_EQ(carrying(analysis.common_sessions), 0);
  }
}

TEST(ParallelPipelineTest, FinishIsIdempotentAndEmptyInputWorks) {
  ParallelPipeline pipeline(scenario().options, 3);
  pipeline.finish();
  pipeline.finish();
  EXPECT_EQ(pipeline.stats().kept, 0u);
  EXPECT_EQ(pipeline.stats().total, 0u);
  EXPECT_TRUE(
      pipeline.request_sessions(pipeline.options().session_timeout).empty());
  const auto analysis = pipeline.analyze_attacks();
  EXPECT_TRUE(analysis.quic_attacks.empty());
  EXPECT_TRUE(analysis.common_attacks.empty());
}

/// A small stream for the sequencer stress test: eight sources, one
/// record kind each (QUIC request, QUIC response, TCP SYN-ACK, ICMP echo
/// reply), one packet a second for 100 s from staggered starts. Sources
/// 0-3 make one attack each. Sources 4-7 pause six minutes halfway, so
/// they make two sessions too short to be attacks. Sources 2 and 3 send
/// one record stamped 30 s before they started, mid-stream.
std::vector<net::RawPacket> stress_stream() {
  util::Rng rng(11);
  const auto start = util::kApril2021Start;
  std::vector<std::pair<util::Timestamp, net::RawPacket>> arrivals;
  const auto packet_at = [&rng](util::Timestamp t, std::uint8_t source) {
    net::Ipv4Header ip;
    ip.src = net::Ipv4Address::from_octets(142, 250, source, 9);
    ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
    const auto ctx = quic::HandshakeContext::random(1, rng);
    constexpr auto kFast = quic::CryptoFidelity::kFast;
    constexpr std::uint8_t kPayload[8] = {};
    switch (source % 4) {
      case 0:
        return net::RawPacket{
            t, net::build_udp(ip, 40000, 443,
                              quic::build_client_initial(ctx, "x", rng,
                                                         kFast))};
      case 1:
        return net::RawPacket{
            t, net::build_udp(ip, 443, 40000,
                              quic::build_server_initial_handshake(
                                  ctx, rng, kFast))};
      case 2:
        return net::RawPacket{
            t, net::build_tcp(ip, {80, 40000, 1, 2,
                                   net::TcpFlags::kSyn | net::TcpFlags::kAck,
                                   {}})};
      default:
        return net::RawPacket{t, net::build_icmp(ip, {0, 0, kPayload})};
    }
  };
  for (std::uint8_t source = 0; source < 8; ++source) {
    const auto first = start + source * 7 * util::kSecond;
    for (int k = 0; k < 100; ++k) {
      auto t = first + k * util::kSecond;
      if (source >= 4 && k >= 50) t += 6 * util::kMinute;
      arrivals.emplace_back(t, packet_at(t, source));
      if ((source == 2 || source == 3) && k == 20) {
        arrivals.emplace_back(t,
                              packet_at(first - 30 * util::kSecond, source));
      }
    }
  }
  std::stable_sort(
      arrivals.begin(), arrivals.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<net::RawPacket> packets;
  for (auto& [arrival, packet] : arrivals) packets.push_back(packet);
  return packets;
}

TEST(ParallelPipelineTest, SequencerKeepsSerialOrderUnderTinyBatches) {
  // Batches of one and three packets make many more batches than
  // workers, so classify tasks finish out of order all the time; each
  // shard must still absorb them in submission order.
  const auto packets = stress_stream();
  PipelineOptions options;
  options.window_start = util::kApril2021Start;
  options.days = 1;
  Classifier classifier({});
  std::vector<PacketRecord> records;
  for (const auto& packet : packets) {
    const auto record = classifier.classify(packet);
    ASSERT_TRUE(record);
    if (keep_for_analysis(*record)) records.push_back(*record);
  }
  const auto timeout = options.session_timeout;
  const auto requests = build_sessions(records, timeout, quic_request_filter());
  const auto responses =
      build_sessions(records, timeout, quic_response_filter());
  const auto common =
      build_sessions(records, timeout, common_backscatter_filter());
  const auto quic_attacks = detect_attacks(responses, DosThresholds{});
  const auto common_attacks = detect_attacks(common, DosThresholds{});
  const std::vector<util::Duration> timeouts = {
      util::kMinute, 5 * util::kMinute,
      std::numeric_limits<util::Duration>::max()};
  const auto sweep = timeout_sweep(records, timeouts, sanitized_quic_filter());
  ASSERT_FALSE(quic_attacks.empty());
  ASSERT_FALSE(common_attacks.empty());
  ASSERT_GT(common.size(), common_attacks.size());

  for (const std::size_t shards : {2u, 4u, 7u}) {
    for (const std::size_t batch_packets : {1u, 3u}) {
      for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE(::testing::Message() << shards << " shards, "
                                          << batch_packets
                                          << "-packet batches, round "
                                          << round);
        ParallelPipeline pipeline(options, shards);
        for (std::size_t i = 0; i < packets.size(); i += batch_packets) {
          net::RecordBatch batch(batch_packets, batch_packets * 1500);
          for (std::size_t j = i; j < std::min(i + batch_packets,
                                               packets.size());
               ++j) {
            ASSERT_TRUE(
                batch.try_append(packets[j].timestamp, packets[j].data));
          }
          pipeline.consume_batch(std::move(batch));
        }
        ASSERT_EQ(pipeline.stats().kept, records.size());
        ASSERT_EQ(pipeline.request_sessions(timeout), requests);
        ASSERT_EQ(pipeline.session_timeout_sweep(timeouts), sweep);
        const auto analysis = pipeline.analyze_attacks();
        ASSERT_EQ(analysis.response_sessions, responses);
        ASSERT_EQ(analysis.common_sessions, common);
        ASSERT_EQ(analysis.quic_attacks, quic_attacks);
        ASSERT_EQ(analysis.common_attacks, common_attacks);
        ASSERT_EQ(pipeline.late_records(), 2u);
      }
    }
  }
}

TEST(ParallelPipelineTest, ShardCountDefaultsToHardware) {
  ParallelPipeline pipeline(scenario().options, 0);
  EXPECT_GE(pipeline.shard_count(), 1u);
}

}  // namespace
}  // namespace quicsand::core
