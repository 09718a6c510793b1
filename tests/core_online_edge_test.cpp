// Online detector edge cases: equality with the batch reference under
// source churn, finish() idempotence, and timestamp-tie / timeout-boundary
// and late-record behavior. These pin
// the semantics the differential oracle relies on (strict `gap >
// timeout` splits, alert at the exact threshold-crossing record), and
// that an open session's memory grows with its minutes, not its packets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <tuple>
#include <vector>

#include "core/online_shards.hpp"
#include "obs/metrics.hpp"

// --- Counting allocator hook ------------------------------------------
// Every heap allocation in this binary bumps the counter; a test
// snapshots it around the region under measurement.

namespace {
// Global by necessity: operator new replacements cannot take state.
// lint:allow(unguarded-mutable-static)
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace quicsand::core {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr util::Timestamp kT0 = util::kApril2021Start;
constexpr util::Duration kTimeout = 5 * util::kMinute;

PacketRecord response_record(util::Timestamp t, std::uint32_t src) {
  PacketRecord record;
  record.timestamp = t;
  record.src = net::Ipv4Address(src);
  record.dst = net::Ipv4Address(0x2c000001);
  record.src_port = 443;
  record.dst_port = 40000;
  record.wire_size = 1200;
  record.cls = TrafficClass::kQuicResponse;
  record.quic_version = 1;
  return record;
}

struct Capture {
  std::vector<DetectedAttack> alerts;
  std::vector<DetectedAttack> attacks;

  void attach(ShardedOnlineDetector& detector) {
    detector.set_on_alert(
        [this](const DetectedAttack& a) { alerts.push_back(a); });
    detector.set_on_attack(
        [this](const DetectedAttack& a) { attacks.push_back(a); });
  }
};

/// A stream with attack bursts from rotating sources and long quiet
/// gaps, so sessions close by the once-a-minute close of idle sessions
/// and at finish().
std::vector<PacketRecord> churn_stream() {
  std::vector<PacketRecord> records;
  for (int burst = 0; burst < 6; ++burst) {
    const auto base = kT0 + burst * util::kHour;
    const auto src = 0xaa000000 + static_cast<std::uint32_t>(burst % 3);
    for (int i = 0; i < 200; ++i) {
      records.push_back(response_record(base + i * util::kSecond, src));
    }
    // Sub-threshold chatter from a second source inside each burst.
    for (int i = 0; i < 10; ++i) {
      records.push_back(
          response_record(base + (200 + i) * util::kSecond, 0xbb000000));
    }
  }
  return records;
}

/// `attacks` ordered by (start, victim, end), each session_index its
/// position: what finish() returns, whatever order the attacks came in.
std::vector<DetectedAttack> renumbered(std::vector<DetectedAttack> attacks) {
  std::sort(attacks.begin(), attacks.end(),
            [](const DetectedAttack& x, const DetectedAttack& y) {
              return std::tie(x.start, x.victim, x.end) <
                     std::tie(y.start, y.victim, y.end);
            });
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    attacks[i].session_index = i;
  }
  return attacks;
}

TEST(OnlineEdge, ChurnMatchesBatchReference) {
  // When sessions leave the table (an idle close or finish()) must not
  // change what is detected: the closed attacks equal the batch reference
  // field for field, and every alerted session closes as an attack.
  const auto records = churn_stream();
  ShardedOnlineDetector detector({});
  Capture capture;
  capture.attach(detector);
  for (const auto& record : records) detector.consume(0, record);
  // The last burst's attacker and chatter are still open; the five
  // earlier attacks were reported as their sessions closed.
  EXPECT_EQ(detector.open_sessions(), 2u);
  EXPECT_EQ(capture.attacks.size(), 5u);
  const auto finished = detector.finish();

  const auto sessions =
      build_sessions(records, kTimeout, quic_response_filter());
  const auto expected =
      renumbered(detect_attacks(sessions, DosThresholds{}));
  ASSERT_EQ(expected.size(), 6u);
  EXPECT_EQ(finished, expected);
  EXPECT_EQ(renumbered(capture.attacks), expected);
  EXPECT_EQ(detector.sessions_evicted(), sessions.size());

  EXPECT_EQ(detector.alerts_fired(), detector.attacks_closed());
  ASSERT_EQ(capture.alerts.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(capture.alerts[i].victim, expected[i].victim);
    EXPECT_EQ(capture.alerts[i].start, expected[i].start);
  }
}

TEST(OnlineEdge, FinishIsIdempotent) {
  ShardedOnlineDetector detector({});
  Capture capture;
  capture.attach(detector);
  for (int i = 0; i < 200; ++i) {
    detector.consume(0, response_record(kT0 + i * util::kSecond, 0xcc000001));
  }
  detector.finish();
  const auto attacks_after_first = capture.attacks;
  const auto evicted_after_first = detector.sessions_evicted();
  EXPECT_EQ(attacks_after_first.size(), 1u);
  EXPECT_EQ(detector.open_sessions(), 0u);

  detector.finish();  // second finish: no sessions left, no new events
  EXPECT_EQ(capture.attacks, attacks_after_first);
  EXPECT_EQ(detector.sessions_evicted(), evicted_after_first);
  EXPECT_EQ(detector.attacks_closed(), 1u);
}

TEST(OnlineEdge, GapEqualToTimeoutStaysInSession) {
  // Session splitting is strict (`gap > timeout`): a record arriving
  // exactly `timeout` after the previous one continues the session; one
  // microsecond later starts a new one.
  for (const util::Duration extra : {util::Duration{0}, util::Duration{1}}) {
    ShardedOnlineDetectorConfig config;
    config.detector.session_timeout = kTimeout;
    ShardedOnlineDetector detector(config);
    Capture capture;
    capture.attach(detector);

    // 100 packets over 99 s (above every threshold), then the gap.
    for (int i = 0; i < 100; ++i) {
      detector.consume(0, response_record(kT0 + i * util::kSecond, 0xdd000001));
    }
    const auto last = kT0 + 99 * util::kSecond;
    detector.consume(0, response_record(last + kTimeout + extra, 0xdd000001));
    detector.finish();

    ASSERT_EQ(capture.attacks.size(), 1u) << "extra " << extra.count();
    if (extra == util::Duration{}) {
      // Same session: the boundary record extends the attack.
      EXPECT_EQ(capture.attacks[0].end, last + kTimeout);
      EXPECT_EQ(capture.attacks[0].packets.count(), 101u);
      EXPECT_EQ(detector.sessions_evicted(), 1u);
    } else {
      // Split: the attack ends at the last pre-gap record; the stray
      // packet forms a separate below-threshold session.
      EXPECT_EQ(capture.attacks[0].end, last);
      EXPECT_EQ(capture.attacks[0].packets.count(), 100u);
      EXPECT_EQ(detector.sessions_evicted(), 2u);
    }
  }
}

TEST(OnlineEdge, EqualTimestampRunsDoNotAlertUntilDurationExceeded) {
  // A burst of records sharing one timestamp has zero duration no matter
  // its size: the alert must wait for the duration threshold, then fire
  // at the exact record that crosses it.
  ShardedOnlineDetector detector({});
  Capture capture;
  capture.attach(detector);

  for (int i = 0; i < 100; ++i) {
    detector.consume(0, response_record(kT0, 0xee000001));
  }
  EXPECT_EQ(detector.alerts_fired(), 0u);

  // Still at 60 s sharp: duration not strictly exceeded.
  detector.consume(0, response_record(kT0 + 60 * util::kSecond, 0xee000001));
  EXPECT_EQ(detector.alerts_fired(), 0u);

  detector.consume(
      0, response_record(kT0 + (60 * util::kSecond) + (util::kMicrosecond),
                         0xee000001));
  ASSERT_EQ(capture.alerts.size(), 1u);
  EXPECT_EQ(capture.alerts[0].end,
            kT0 + (60 * util::kSecond) + (util::kMicrosecond));
  EXPECT_EQ(capture.alerts[0].packets.count(), 102u);

  detector.finish();
  ASSERT_EQ(capture.attacks.size(), 1u);
  EXPECT_EQ(capture.attacks[0].packets.count(), 102u);
}

TEST(OnlineEdge, SweepAtExactTimeoutBoundaryKeepsSession) {
  // Idle sessions close on `now - end > timeout`, the split rule: a
  // session whose last record is exactly `timeout` old survives a close
  // of idle sessions triggered by other traffic and can still be
  // extended. The closes run once a minute of stream time: the last one
  // before the boundary record ran at kT0 + 60 s, so the boundary record
  // (kT0 + 399 s) runs one.
  ShardedOnlineDetectorConfig config;
  config.detector.session_timeout = kTimeout;
  ShardedOnlineDetector detector(config);
  Capture capture;
  capture.attach(detector);

  for (int i = 0; i < 100; ++i) {
    detector.consume(0, response_record(kT0 + i * util::kSecond, 0xaa000001));
  }
  const auto last = kT0 + 99 * util::kSecond;
  // Unrelated source triggers a close of idle sessions exactly at the
  // boundary.
  detector.consume(0, response_record(last + kTimeout, 0xbb000002));
  EXPECT_EQ(detector.open_sessions(), 2u);
  // The original session is still extendable at the boundary.
  detector.consume(0, response_record(last + kTimeout, 0xaa000001));
  detector.finish();
  ASSERT_EQ(capture.attacks.size(), 1u);
  EXPECT_EQ(capture.attacks[0].packets.count(), 101u);
  EXPECT_EQ(capture.attacks[0].end, last + kTimeout);
}

TEST(OnlineEdge, LateTimestampJoinsOpenSession) {
  // Two minutes older than the session start must not throw; it joins
  // the open session and is counted.
  obs::MetricsRegistry metrics;
  ShardedOnlineDetectorConfig config;
  config.detector.obs.metrics = &metrics;
  ShardedOnlineDetector detector(config);
  detector.consume(0, response_record(kT0 + 2 * util::kMinute, 0xee000001));
  EXPECT_NO_THROW(detector.consume(0, response_record(kT0, 0xee000001)));
  EXPECT_EQ(detector.open_sessions(), 1u);
  EXPECT_EQ(detector.late_records(), 1u);
  EXPECT_EQ(metrics.counter("online.late_records").value(), 1u);
  detector.finish();
  EXPECT_EQ(detector.sessions_evicted(), 1u);
}

TEST(OnlineEdge, OpenSessionGrowsWithMinutesNotPackets) {
  // A flood with a fresh SCID, peer and port on every packet: the
  // detector reads none of them, so after the session opens the only
  // allocations are minute-slot growth, at most one per new minute.
  ShardedOnlineDetector detector({});
  constexpr int kMinutes = 10;
  constexpr int kPerSecond = 10;
  constexpr int kPackets = kMinutes * 60 * kPerSecond;
  std::vector<PacketRecord> records;
  records.reserve(kPackets);
  for (int i = 0; i < kPackets; ++i) {
    auto record = response_record(
        kT0 + i * (util::kSecond / kPerSecond), 0xcc000001);
    record.dst = net::Ipv4Address(0x2c000000 + static_cast<std::uint32_t>(i));
    record.dst_port = static_cast<std::uint16_t>(1024 + i);
    record.has_scid = true;
    record.scid_hash = 0x5c1d000000000000ULL + static_cast<std::uint64_t>(i);
    records.push_back(record);
  }
  detector.consume(0, records.front());
  ASSERT_EQ(detector.open_sessions(), 1u);
  const auto before = allocations();
  for (int i = 1; i < kPackets; ++i) detector.consume(0, records[i]);
  const auto allocated = allocations() - before;
  EXPECT_EQ(detector.open_sessions(), 1u);
  EXPECT_EQ(detector.alerts_fired(), 1u);
  // The last packet, at 599.9 s, falls in minute slot 9: nine new slots
  // after the one the first packet opened.
  EXPECT_LE(allocated, static_cast<std::uint64_t>(kMinutes - 1))
      << allocated << " allocations over " << kPackets - 1 << " packets";
}

}  // namespace
}  // namespace quicsand::core
