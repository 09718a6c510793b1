#include <gtest/gtest.h>

#include "quic/dissector.hpp"
#include "quic/initial_aead.hpp"
#include "quic/retry.hpp"
#include "server/experiment.hpp"
#include "server/replay.hpp"
#include "server/sim.hpp"

namespace quicsand::server {
namespace {

constexpr util::Timestamp kT0 = util::kApril2021Start;

ReplayConfig replay_at(double pps, std::uint64_t packets) {
  ReplayConfig config;
  config.pps = pps;
  config.packets = packets;
  config.fidelity = quic::CryptoFidelity::kFast;
  return config;
}

ServerConfig small_server(int workers, bool retry) {
  ServerConfig config;
  config.workers = workers;
  config.connections_per_worker = 64;  // scaled-down slot pool for tests
  config.retry_enabled = retry;
  return config;
}

TEST(RecordedFlood, DeterministicAndRewindable) {
  RecordedFlood flood(replay_at(100, 5));
  std::vector<std::vector<std::uint8_t>> first;
  while (auto record = flood.next()) first.push_back(record->datagram);
  ASSERT_EQ(first.size(), 5u);
  flood.rewind();
  std::size_t i = 0;
  while (auto record = flood.next()) {
    EXPECT_EQ(record->datagram, first[i]);
    ++i;
  }
  EXPECT_EQ(i, 5u);
}

TEST(RecordedFlood, TimestampsFollowRate) {
  RecordedFlood flood(replay_at(10, 21));
  util::Timestamp first{}, last{};
  std::uint64_t count = 0;
  while (auto record = flood.next()) {
    if (count == 0) first = record->time;
    last = record->time;
    ++count;
  }
  EXPECT_EQ(count, 21u);
  EXPECT_NEAR(util::to_seconds(last - first), 2.0, 0.01);
}

TEST(RecordedFlood, PacketsAreValidClientInitials) {
  RecordedFlood flood(replay_at(10, 3));
  while (auto record = flood.next()) {
    const auto result = quic::dissect_udp_payload(record->datagram);
    ASSERT_TRUE(result.is_quic);
    EXPECT_EQ(result.packets[0].kind, quic::QuicPacketKind::kInitial);
    EXPECT_EQ(record->datagram.size(), 1200u);
  }
}

TEST(QuicServerSim, AcceptsUntilSlotsExhaust) {
  ServerConfig config = small_server(1, false);  // 64 slots
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(1000, 200));
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kSecond);
  EXPECT_EQ(stats.client_requests, 200u);
  EXPECT_EQ(stats.accepted, 64u);  // exactly the slot pool
  EXPECT_EQ(stats.dropped_no_slot, 136u);
  EXPECT_EQ(stats.server_responses, 64u * 4);
  EXPECT_NEAR(stats.availability(), 0.32, 0.001);
}

TEST(QuicServerSim, SlotsRecycleAfterHold) {
  ServerConfig config = small_server(1, false);
  config.handshake_hold = 10 * util::kSecond;
  QuicServerSim sim(config);
  // 64 Initials now, 64 more after the hold expires.
  RecordedFlood flood(replay_at(64, 128));  // 2 seconds of traffic
  std::vector<RecordedFlood::Record> records;
  while (auto record = flood.next()) records.push_back(*std::move(record));
  for (std::size_t i = 0; i < 64; ++i) {
    sim.on_datagram(records[i].time, records[i].datagram);
  }
  EXPECT_EQ(sim.stats().accepted, 64u);
  for (std::size_t i = 64; i < 128; ++i) {
    sim.on_datagram(records[i].time + 15 * util::kSecond,
                    records[i].datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kMinute);
  EXPECT_EQ(stats.accepted, 128u);
  EXPECT_EQ(stats.dropped_no_slot, 0u);
}

TEST(QuicServerSim, RetryAnswersEverythingStatelessly) {
  ServerConfig config = small_server(1, true);
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(10000, 2000));
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kSecond);
  EXPECT_EQ(stats.retries_sent, 2000u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.dropped_no_slot, 0u);
  EXPECT_DOUBLE_EQ(stats.availability(), 1.0);
  EXPECT_EQ(sim.active_connections(), 0u);  // no state held
}

TEST(QuicServerSim, RxQueueDropsAboveWorkerBudget) {
  ServerConfig config = small_server(1, true);
  config.per_worker_pps = 100;  // tiny packet budget
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(1000, 1000));  // 1 second at 10x budget
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kSecond);
  EXPECT_GT(stats.dropped_rx_queue, 700u);
  EXPECT_LT(stats.availability(), 0.35);
}

TEST(QuicServerSim, MalformedDatagramsCounted) {
  QuicServerSim sim(small_server(1, false));
  const std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02};
  sim.on_datagram(kT0, junk);
  // A handshake packet is not an Initial: counted malformed as well.
  util::Rng rng(1);
  const auto ctx = quic::HandshakeContext::random(1, rng);
  sim.on_datagram(
      kT0, quic::build_server_handshake(ctx, rng, quic::CryptoFidelity::kFast));
  EXPECT_EQ(sim.stats().malformed, 2u);
  EXPECT_EQ(sim.stats().accepted, 0u);
}

TEST(QuicServerSim, ResponseSinkProducesRealPackets) {
  ServerConfig config = small_server(1, false);
  QuicServerSim sim(config);
  std::vector<std::vector<std::uint8_t>> responses;
  sim.set_response_sink(
      [&](util::Timestamp, std::span<const std::uint8_t> bytes) {
        responses.emplace_back(bytes.begin(), bytes.end());
      },
      quic::CryptoFidelity::kFull);
  RecordedFlood flood(replay_at(10, 1));
  ReplayConfig full = replay_at(10, 1);
  full.fidelity = quic::CryptoFidelity::kFull;
  RecordedFlood full_flood(full);
  const auto record = full_flood.next();
  ASSERT_TRUE(record.has_value());
  sim.on_datagram(record->time, record->datagram);
  ASSERT_EQ(responses.size(), 4u);
  // First response: Initial+Handshake coalesced, decryptable with server
  // initial keys derived from the client's DCID.
  const auto client_view = quic::parse_long_header(record->datagram, 0);
  ASSERT_TRUE(client_view.has_value());
  const auto view = quic::parse_long_header(responses[0], 0);
  ASSERT_TRUE(view.has_value());
  const auto keys = quic::derive_initial_keys(
      1, quic::ConnectionId(client_view->dcid), quic::Perspective::kServer);
  EXPECT_TRUE(
      quic::open_long_header_packet(keys, responses[0], *view).has_value());
}

TEST(QuicServerSim, RetrySinkEmitsVerifiableRetry) {
  ServerConfig config = small_server(1, true);
  QuicServerSim sim(config);
  std::vector<std::vector<std::uint8_t>> responses;
  sim.set_response_sink(
      [&](util::Timestamp, std::span<const std::uint8_t> bytes) {
        responses.emplace_back(bytes.begin(), bytes.end());
      },
      quic::CryptoFidelity::kFull);
  ReplayConfig one = replay_at(10, 1);
  RecordedFlood flood(one);
  const auto record = flood.next();
  ASSERT_TRUE(record.has_value());
  sim.on_datagram(record->time, record->datagram);
  ASSERT_EQ(responses.size(), 1u);
  const auto client_view = quic::parse_long_header(record->datagram, 0);
  ASSERT_TRUE(client_view.has_value());
  EXPECT_TRUE(quic::verify_retry_integrity(
      1, responses[0], quic::ConnectionId(client_view->dcid)));
}

// Table 1 shape at reduced scale: without RETRY availability collapses
// with rate; more workers push the collapse point out; RETRY holds 100%.
class Table1ShapeTest : public ::testing::TestWithParam<double> {};

TEST_P(Table1ShapeTest, RetryAlwaysFullAvailability) {
  ServerConfig server = small_server(4, true);
  const auto result = run_replay(server, replay_at(GetParam(), 5000));
  EXPECT_DOUBLE_EQ(result.stats.availability(), 1.0);
  EXPECT_TRUE(result.extra_rtt);
}

INSTANTIATE_TEST_SUITE_P(Rates, Table1ShapeTest,
                         ::testing::Values(10.0, 1000.0, 20000.0));

TEST(Table1Shape, AvailabilityCollapsesWithoutRetry) {
  ServerConfig server = small_server(4, false);  // 256 slots
  server.handshake_hold = 60 * util::kSecond;
  const auto low = run_replay(server, replay_at(2, 600));     // 300 s
  const auto mid = run_replay(server, replay_at(20, 6000));   // 300 s
  const auto high = run_replay(server, replay_at(200, 60000));
  EXPECT_DOUBLE_EQ(low.stats.availability(), 1.0);
  EXPECT_LT(mid.stats.availability(), 0.65);
  EXPECT_LT(high.stats.availability(), 0.07);
  EXPECT_GT(high.stats.dropped_no_slot, 50000u);
}

TEST(Table1Shape, MoreWorkersRaiseTheCollapsePoint) {
  const auto few = run_replay(small_server(1, false), replay_at(20, 6000));
  const auto many = run_replay(small_server(16, false), replay_at(20, 6000));
  EXPECT_GT(many.stats.availability(), few.stats.availability() + 0.3);
}

TEST(QuicServerSim, AdaptiveRetryKicksInUnderLoad) {
  ServerConfig config = small_server(1, false);  // 64 slots
  config.retry_mode = RetryMode::kAdaptive;
  config.adaptive_retry_load = 0.5;  // retry above 32 live connections
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(1000, 200));
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kSecond);
  // The first half of the table fills with full handshakes, then the
  // server flips to stateless Retries: availability stays at 100%.
  EXPECT_EQ(stats.accepted, 32u);
  EXPECT_EQ(stats.retries_sent, 168u);
  EXPECT_EQ(stats.dropped_no_slot, 0u);
  EXPECT_DOUBLE_EQ(stats.availability(), 1.0);
}

TEST(QuicServerSim, AdaptiveRetryStaysOffAtLowLoad) {
  ServerConfig config = small_server(1, false);
  config.retry_mode = RetryMode::kAdaptive;
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(10, 20));  // far below 50% of 64 slots
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kMinute);
  EXPECT_EQ(stats.accepted, 20u);
  EXPECT_EQ(stats.retries_sent, 0u);  // normal clients keep 1-RTT
}

TEST(QuicServerSim, AmplificationFactorStaysBelowThree) {
  ServerConfig config = small_server(4, false);
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(100, 200));
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kMinute);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_GT(stats.bytes_sent, stats.bytes_received);  // server amplifies
  EXPECT_LE(stats.amplification_factor(), 3.0);       // but under the cap
}

TEST(QuicServerSim, RetryModeAmplificationBelowOne) {
  ServerConfig config = small_server(1, true);
  QuicServerSim sim(config);
  RecordedFlood flood(replay_at(100, 200));
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram);
  }
  const auto& stats = sim.finish(kT0 + util::kMinute);
  // A Retry is far smaller than the padded Initial that triggered it:
  // RETRY makes the server useless as an amplifier.
  EXPECT_LT(stats.amplification_factor(), 0.2);
}

TEST(QuicServerSim, PerSourceFilterUselessAgainstSpoofedFlood) {
  // The paper's §3 observation, runnable: every flood packet carries a
  // fresh spoofed source, so a per-source rate limiter never triggers
  // and the slot pool still collapses.
  ServerConfig config = small_server(1, false);
  config.per_source_rate_limit = true;
  config.per_source_pps = 5;
  QuicServerSim sim(config);
  ReplayConfig replay = replay_at(1000, 500);
  replay.spoofed_sources = true;
  RecordedFlood flood(replay);
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram, record->source);
  }
  const auto& stats = sim.finish(kT0 + util::kSecond);
  EXPECT_EQ(stats.dropped_filtered, 0u);  // filter never fires
  EXPECT_EQ(stats.accepted, 64u);         // slots exhausted regardless
  EXPECT_GT(stats.dropped_no_slot, 400u);
}

TEST(QuicServerSim, PerSourceFilterThrottlesSingleSourceFlood) {
  ServerConfig config = small_server(1, false);
  config.per_source_rate_limit = true;
  config.per_source_pps = 5;
  QuicServerSim sim(config);
  ReplayConfig replay = replay_at(1000, 500);
  replay.spoofed_sources = false;  // honest single-source sender
  RecordedFlood flood(replay);
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram, record->source);
  }
  const auto& stats = sim.finish(kT0 + util::kSecond);
  // 0.5 seconds of traffic from one address: bucket admits ~8 packets.
  EXPECT_GT(stats.dropped_filtered, 480u);
  EXPECT_LT(stats.accepted, 15u);
  EXPECT_EQ(stats.dropped_no_slot, 0u);  // never even fills the slots
}

TEST(QuicServerSim, FilterTableEvictsUnderAddressChurn) {
  ServerConfig config = small_server(1, false);
  config.per_source_rate_limit = true;
  config.filter_table_limit = 100;  // tiny table
  QuicServerSim sim(config);
  ReplayConfig replay = replay_at(1000, 500);
  RecordedFlood flood(replay);
  while (auto record = flood.next()) {
    sim.on_datagram(record->time, record->datagram, record->source);
  }
  EXPECT_GE(sim.stats().filter_table_evictions, 3u);
}

TEST(ClientExperience, AllThreeRetryModes) {
  ClientExperienceConfig experiment;
  experiment.flood = replay_at(1000, 60000);  // 60 s of flood
  experiment.legit_rate = 2.0;

  // Without RETRY: the flood pins all 64 slots within ~64 ms; honest
  // clients arriving later find no state and fail.
  ServerConfig off = small_server(1, false);
  const auto r_off = run_client_experience(off, experiment);
  ASSERT_GT(r_off.attempts, 60u);
  EXPECT_LT(r_off.success_rate(), 0.15);

  // RETRY always: everyone completes, at two round trips.
  ServerConfig always = small_server(1, false);
  always.retry_mode = RetryMode::kAlways;
  const auto r_always = run_client_experience(always, experiment);
  EXPECT_DOUBLE_EQ(r_always.success_rate(), 1.0);
  EXPECT_DOUBLE_EQ(r_always.mean_round_trips(), 2.0);
  EXPECT_EQ(r_always.failed, 0u);

  // Adaptive: completes everyone; the pre-flood clients keep 1 RTT.
  ServerConfig adaptive = small_server(1, false);
  adaptive.retry_mode = RetryMode::kAdaptive;
  const auto r_adaptive = run_client_experience(adaptive, experiment);
  EXPECT_DOUBLE_EQ(r_adaptive.success_rate(), 1.0);
  EXPECT_LE(r_adaptive.mean_round_trips(), 2.0);
}

TEST(ClientExperience, NoFloodMeansOneRttEverywhereButAlways) {
  ClientExperienceConfig experiment;
  experiment.flood = replay_at(1000, 0);  // no attack packets
  experiment.flood.packets = 0;
  // Give the window some length so honest clients arrive.
  experiment.flood.pps = 1;
  experiment.flood.packets = 0;
  ClientExperienceConfig quiet = experiment;
  quiet.flood = replay_at(0.001, 1);  // one packet -> ~17 min window
  quiet.legit_rate = 0.05;

  ServerConfig adaptive = small_server(1, false);
  adaptive.retry_mode = RetryMode::kAdaptive;
  const auto r = run_client_experience(adaptive, quiet);
  ASSERT_GT(r.attempts, 10u);
  EXPECT_DOUBLE_EQ(r.success_rate(), 1.0);
  // No load: adaptive RETRY stays off and clients keep the fast path.
  EXPECT_DOUBLE_EQ(r.mean_round_trips(), 1.0);

  ServerConfig always = small_server(1, false);
  always.retry_mode = RetryMode::kAlways;
  const auto r2 = run_client_experience(always, quiet);
  EXPECT_DOUBLE_EQ(r2.mean_round_trips(), 2.0);
}

TEST(DumpRecording, WritesPcap) {
  const auto path = std::string("/tmp/quicsand_recording_test.pcap");
  const auto written = dump_recording_pcap(replay_at(100, 10), path, 5);
  EXPECT_EQ(written, 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace quicsand::server
