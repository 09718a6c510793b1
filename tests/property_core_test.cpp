// Property tests for the analysis pipeline: sessionization invariants on
// random record streams, detector monotonicity in the threshold weight,
// and correlator consistency against the raw attack intervals.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "core/correlate.hpp"
#include "core/dos.hpp"
#include "core/sessions.hpp"
#include "util/rng.hpp"
#include "util/sharded_counter.hpp"

namespace quicsand::core {
namespace {

/// Random stream of QUIC request records from a pool of sources, sorted
/// by time, as the classifier would produce them.
util::Duration random_duration(util::Rng& rng, util::Duration bound) {
  return util::Duration{static_cast<std::int64_t>(
      rng.uniform(static_cast<std::uint64_t>(bound.count())))};
}

std::vector<PacketRecord> random_records(util::Rng& rng,
                                         std::size_t packets,
                                         std::size_t sources) {
  std::vector<PacketRecord> records;
  records.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    PacketRecord record;
    record.timestamp =
        util::kApril2021Start + random_duration(rng, 6 * util::kHour);
    record.src = net::Ipv4Address(
        1000 + static_cast<std::uint32_t>(rng.uniform(sources)));
    record.dst = net::Ipv4Address(
        static_cast<std::uint32_t>(0x2c000000 + rng.uniform(1 << 16)));
    record.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
    record.dst_port = 443;
    record.wire_size = 1200;
    record.cls = TrafficClass::kQuicRequest;
    record.quic_version = 1;
    records.push_back(record);
  }
  std::sort(records.begin(), records.end(),
            [](const PacketRecord& a, const PacketRecord& b) {
              return a.timestamp < b.timestamp;
            });
  return records;
}

/// random_records spread over the three session groups, some with a
/// SCID, so every group's table and the response group's distinct sets
/// run.
std::vector<PacketRecord> random_grouped_records(util::Rng& rng,
                                                 std::size_t packets,
                                                 std::size_t sources) {
  constexpr std::array kClasses{
      TrafficClass::kQuicRequest, TrafficClass::kQuicResponse,
      TrafficClass::kTcpBackscatter, TrafficClass::kIcmpBackscatter};
  auto records = random_records(rng, packets, sources);
  for (auto& record : records) {
    record.cls = kClasses[rng.uniform(kClasses.size())];
    record.has_scid = rng.uniform(2) == 0;
    record.scid_hash = rng.uniform(64);
  }
  return records;
}

TEST(SessionProperty, PacketsAreConserved) {
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const auto records = random_records(rng, 2000, 40);
    for (const auto timeout :
         {util::kMinute, 5 * util::kMinute, util::kHour}) {
      const auto sessions =
          build_sessions(records, timeout, quic_request_filter());
      std::uint64_t total = 0;
      for (const auto& session : sessions) total += session.packets.count();
      EXPECT_EQ(total, records.size());
    }
  }
}

TEST(SessionProperty, SameSourceSessionsSeparatedByMoreThanTimeout) {
  util::Rng rng(43);
  const auto records = random_records(rng, 3000, 25);
  const auto timeout = 2 * util::kMinute;
  const auto sessions =
      build_sessions(records, timeout, quic_request_filter());
  std::map<std::uint32_t, std::vector<const Session*>> by_source;
  for (const auto& session : sessions) {
    by_source[session.source.value()].push_back(&session);
  }
  for (auto& [source, list] : by_source) {
    std::sort(list.begin(), list.end(),
              [](const Session* a, const Session* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_GT(list[i]->start - list[i - 1]->end, timeout);
    }
  }
}

TEST(SessionProperty, SessionBoundsContainAllMinuteBins) {
  util::Rng rng(47);
  const auto records = random_records(rng, 1500, 30);
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  for (const auto& session : sessions) {
    EXPECT_LE(session.start, session.end);
    std::uint64_t binned = 0;
    for (const auto count : session.minute_counts) binned += count;
    EXPECT_EQ(binned, session.packets.count());
    // The last bin index must match the duration: slots are
    // (i*60s, (i+1)*60s] with the start packet in slot 0, so a duration
    // of exactly k minutes still ends in slot k-1.
    const auto expected_slots =
        session.duration() == util::Duration{}
            ? 1u
            : static_cast<std::size_t>((session.duration() -
                                        util::kMicrosecond) /
                                       util::kMinute) +
                  1;
    EXPECT_EQ(session.minute_counts.size(), expected_slots);
  }
}

TEST(SessionRegression, MinuteBoundaryPacketStaysInClosingMinute) {
  // A packet exactly 60 s after the session start has one minute of
  // elapsed activity: it must land in minute slot 0, not open a phantom
  // trailing slot whose near-empty count would let a 1 µs timing
  // difference flip peak_pps() across the DoS threshold.
  std::vector<PacketRecord> records;
  for (int i = 0; i < 30; ++i) {
    PacketRecord record;
    record.timestamp =
        util::kApril2021Start + i * 2 * util::kSecond;
    record.src = net::Ipv4Address(1);
    record.dst = net::Ipv4Address(2);
    record.dst_port = 443;
    record.wire_size = 100;
    record.cls = TrafficClass::kQuicRequest;
    records.push_back(record);
  }
  PacketRecord boundary = records.back();
  boundary.timestamp = util::kApril2021Start + util::kMinute;  // start + 60 s
  records.push_back(boundary);

  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(sessions.size(), 1u);
  const Session& session = sessions.front();
  EXPECT_EQ(session.duration(), util::kMinute);
  ASSERT_EQ(session.minute_counts.size(), 1u);
  EXPECT_EQ(session.minute_counts[0], 31u);
  EXPECT_DOUBLE_EQ(session.peak_pps().count(), 31.0 / 60.0);

  // One microsecond past the boundary genuinely starts the next minute.
  PacketRecord past = boundary;
  past.timestamp += util::kMicrosecond;
  records.push_back(past);
  const auto extended =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(extended.size(), 1u);
  ASSERT_EQ(extended.front().minute_counts.size(), 2u);
  EXPECT_EQ(extended.front().minute_counts[1], 1u);
  EXPECT_DOUBLE_EQ(extended.front().peak_pps().count(), 31.0 / 60.0);
}

TEST(SessionProperty, ShardPartitionedSessionizationMergesToWhole) {
  // Sessionization is source-local: building sessions over a
  // shard-partitioned record stream and merging must equal building them
  // over the whole stream — the invariant the ParallelPipeline rests on.
  util::Rng rng(71);
  for (int trial = 0; trial < 5; ++trial) {
    const auto records = random_records(rng, 2000, 50);
    const auto whole =
        build_sessions(records, 3 * util::kMinute, quic_request_filter());
    for (const std::size_t shards : {2u, 4u, 7u}) {
      std::vector<std::vector<PacketRecord>> parts(shards);
      for (const auto& record : records) {
        parts[util::shard_of(record.src.value(), shards)].push_back(record);
      }
      std::vector<std::vector<Session>> sessions(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        sessions[s] = build_sessions(parts[s], 3 * util::kMinute,
                                     quic_request_filter());
      }
      const auto merged = merge_sessions(std::move(sessions));
      EXPECT_EQ(merged.sessions, whole);
      // The index maps must address every merged slot exactly once.
      std::vector<bool> seen(merged.sessions.size(), false);
      for (const auto& part : merged.global_index) {
        for (const auto index : part) {
          ASSERT_LT(index, seen.size());
          EXPECT_FALSE(seen[index]);
          seen[index] = true;
        }
      }
    }
  }
}

TEST(SessionProperty, ShardedGapProfilesMergeToWholeSweep) {
  util::Rng rng(73);
  const auto records = random_records(rng, 2500, 40);
  std::vector<util::Duration> timeouts;
  for (const int minutes : {1, 3, 10, 45}) {
    timeouts.push_back(minutes * util::kMinute);
  }
  const auto expected =
      timeout_sweep(records, timeouts, quic_request_filter());
  for (const std::size_t shards : {2u, 4u, 7u}) {
    std::vector<std::vector<PacketRecord>> parts(shards);
    for (const auto& record : records) {
      parts[util::shard_of(record.src.value(), shards)].push_back(record);
    }
    GapProfile merged;
    for (auto& part : parts) {
      merge_gap_profiles(merged,
                         collect_gap_profile(part, quic_request_filter()));
    }
    EXPECT_EQ(sweep_counts(std::move(merged), timeouts), expected);
  }
}

TEST(SessionProperty, SweepMatchesBuildSessionsOnRandomTimeouts) {
  util::Rng rng(53);
  const auto records = random_records(rng, 2500, 35);
  std::vector<util::Duration> timeouts;
  for (int i = 0; i < 12; ++i) {
    timeouts.push_back(rng.uniform_range(1, 90) * util::kMinute);
  }
  const auto sweep = timeout_sweep(records, timeouts, quic_request_filter());
  for (const auto& [timeout, count] : sweep) {
    EXPECT_EQ(count,
              build_sessions(records, timeout, quic_request_filter()).size());
  }
}

TEST(SessionProperty, ClosingIdleSessionsNeverChangesTheResult) {
  // The streaming detector closes idle sessions while the stream runs;
  // batch callers close them all at the end. On a per-source-ordered
  // stream, when close_idle(now) runs must not change the sessions.
  util::Rng rng(79);
  const auto timeout = 5 * util::kMinute;
  for (int trial = 0; trial < 5; ++trial) {
    const auto records = random_grouped_records(rng, 2000, 40);
    for (const auto filter : {quic_request_filter(), quic_response_filter(),
                              common_backscatter_filter()}) {
      const auto expected = build_sessions(records, timeout, filter);
      for (const std::size_t every : {1u, 7u, 0u}) {  // 0: never
        SessionTable table(timeout, filter);
        for (std::size_t i = 0; i < records.size(); ++i) {
          OpenSession* open = table.absorb(records[i]);
          if (open != nullptr && filter == quic_response_filter()) {
            absorb_distinct(open->session, records[i]);
          }
          if (every != 0 && (i + 1) % every == 0) {
            table.close_idle(records[i].timestamp);
          }
        }
        if (every == 1) {
          EXPECT_FALSE(table.closed().empty());
        }
        EXPECT_EQ(table.close_all(), expected) << "every " << every;
      }
    }
  }

  // Idle for exactly the timeout: still open. One microsecond more:
  // closed.
  const auto record = random_records(rng, 1, 1).front();
  SessionTable table(timeout, quic_request_filter());
  ASSERT_NE(table.absorb(record), nullptr);
  table.close_idle(record.timestamp + timeout);
  EXPECT_EQ(table.open_sessions(), 1u);
  EXPECT_TRUE(table.closed().empty());
  table.close_idle(record.timestamp + timeout + util::kMicrosecond);
  EXPECT_EQ(table.open_sessions(), 0u);
  EXPECT_EQ(table.closed().size(), 1u);
}

TEST(DosProperty, DetectionIsMonotoneInWeight) {
  util::Rng rng(59);
  // Build sessions with a wide spread of sizes.
  std::vector<Session> sessions;
  for (int i = 0; i < 200; ++i) {
    Session session;
    session.source = net::Ipv4Address(static_cast<std::uint32_t>(i));
    session.start = util::kApril2021Start;
    const auto minutes = 1 + rng.uniform(120);
    session.end = session.start + minutes * util::kMinute;
    session.packets = PacketCount{1 + rng.uniform(2000)};
    session.minute_counts.assign(minutes + 1, 0);
    for (std::uint64_t p = 0; p < session.packets.count(); ++p) {
      ++session.minute_counts[rng.uniform(minutes + 1)];
    }
    sessions.push_back(std::move(session));
  }
  std::size_t previous = sessions.size() + 1;
  std::set<std::uint32_t> previous_set;
  bool first = true;
  for (const double w : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    const auto attacks =
        detect_attacks(sessions, DosThresholds{}.weighted(w));
    std::set<std::uint32_t> current;
    for (const auto& attack : attacks) current.insert(attack.victim.value());
    EXPECT_LE(attacks.size(), previous);
    if (!first) {
      // Stricter thresholds select a subset.
      for (const auto v : current) EXPECT_TRUE(previous_set.contains(v));
    }
    previous = attacks.size();
    previous_set = std::move(current);
    first = false;
  }
}

TEST(DosProperty, DetectedPlusExcludedCoverAllSessions) {
  util::Rng rng(61);
  std::vector<Session> sessions;
  for (int i = 0; i < 150; ++i) {
    Session session;
    session.source = net::Ipv4Address(static_cast<std::uint32_t>(i));
    session.start = util::kApril2021Start;
    const auto minutes = 1 + rng.uniform(30);
    session.end = session.start + minutes * util::kMinute;
    session.packets = PacketCount{1 + rng.uniform(500)};
    session.minute_counts.assign(minutes + 1, 0);
    session.minute_counts[0] =
        static_cast<std::uint32_t>(session.packets.count());
    sessions.push_back(std::move(session));
  }
  const auto attacks = detect_attacks(sessions, {});
  const auto excluded = summarize_excluded(sessions, {});
  EXPECT_EQ(attacks.size() + excluded.count, sessions.size());
}

TEST(DosProperty, AdmitsIsMonotoneOverASession) {
  // The streaming detector decides "attack closed" with admits() on the
  // closed session, not with its alert flag. That holds only if admits()
  // never turns false as a session grows, through equal-timestamp runs
  // and late records too.
  util::Rng rng(83);
  constexpr std::array kWeights{0.1, 1.0, 10.0};
  constexpr std::array kGapBounds{10 * util::kMillisecond,
                                  100 * util::kMillisecond, util::kSecond,
                                  10 * util::kSecond};
  std::array<int, kWeights.size()> crossed{};
  for (int trial = 0; trial < 20; ++trial) {
    SessionTable table(5 * util::kMinute, quic_request_filter());
    auto record = random_records(rng, 1, 1).front();
    const auto start = record.timestamp;
    auto now = start;
    auto gap_bound = kGapBounds[0];
    std::uint64_t late = 0;
    std::array<bool, kWeights.size()> admitted{};
    const auto packets = 500 + rng.uniform(2500);
    for (std::uint64_t p = 0; p < packets; ++p) {
      if (p % 100 == 0) gap_bound = kGapBounds[rng.uniform(kGapBounds.size())];
      const auto roll = rng.uniform(20);
      if (p > 0 && roll == 0) {
        record.timestamp = start - util::kMicrosecond -
                           random_duration(rng, 2 * util::kMinute);
        ++late;
      } else {
        // One roll in five repeats the last timestamp.
        if (roll >= 4) now += random_duration(rng, gap_bound);
        record.timestamp = now;
      }
      const OpenSession* open = table.absorb(record);
      ASSERT_NE(open, nullptr);
      ASSERT_EQ(open->session.packets.count(), p + 1);  // never split
      for (std::size_t w = 0; w < kWeights.size(); ++w) {
        const bool admits =
            DosThresholds{}.weighted(kWeights[w]).admits(open->session);
        if (admitted[w]) {
          ASSERT_TRUE(admits) << "w " << kWeights[w] << ", packet " << p;
        } else if (admits) {
          admitted[w] = true;
          ++crossed[w];
        }
      }
    }
    EXPECT_EQ(table.late_records(), late);
  }
  // Every weight's thresholds were crossed in some trial, so the check
  // above ran on sessions that admit.
  for (const int count : crossed) EXPECT_GT(count, 0);
}

DetectedAttack make_attack(std::uint32_t victim, util::Timestamp start,
                           util::Duration duration) {
  DetectedAttack attack;
  attack.victim = net::Ipv4Address(victim);
  attack.start = start;
  attack.end = start + duration;
  attack.packets = PacketCount{100};
  attack.peak_pps = Pps{1.0};
  return attack;
}

TEST(CorrelatorProperty, RandomSchedulesAreConsistent) {
  util::Rng rng(67);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<DetectedAttack> quic, common;
    for (int i = 0; i < 40; ++i) {
      quic.push_back(make_attack(
          static_cast<std::uint32_t>(rng.uniform(12)),
          util::kApril2021Start + random_duration(rng, util::kDay),
          util::kMinute + random_duration(rng, 2 * util::kHour)));
    }
    for (int i = 0; i < 30; ++i) {
      common.push_back(make_attack(
          static_cast<std::uint32_t>(rng.uniform(12)),
          util::kApril2021Start + random_duration(rng, util::kDay),
          util::kMinute + random_duration(rng, 3 * util::kHour)));
    }
    const auto report = correlate_attacks(quic, common);
    EXPECT_EQ(report.total(), quic.size());
    EXPECT_NEAR(report.share(Relation::kConcurrent) +
                    report.share(Relation::kSequential) +
                    report.share(Relation::kIsolated),
                1.0, 1e-9);
    for (const auto& correlation : report.per_attack) {
      const auto& attack = quic[correlation.quic_attack_index];
      // Re-derive the relation directly from the intervals.
      bool any_same_victim = false;
      bool any_overlap = false;
      for (const auto& other : common) {
        if (other.victim != attack.victim) continue;
        any_same_victim = true;
        if (attack.overlaps(other, util::kSecond)) any_overlap = true;
      }
      switch (correlation.relation) {
        case Relation::kConcurrent:
          EXPECT_TRUE(any_overlap);
          EXPECT_GT(correlation.overlap_share, 0.0);
          EXPECT_LE(correlation.overlap_share, 1.0);
          break;
        case Relation::kSequential:
          EXPECT_TRUE(any_same_victim);
          EXPECT_GE(correlation.gap, util::Duration{});
          break;
        case Relation::kIsolated:
          EXPECT_FALSE(any_same_victim);
          break;
      }
    }
  }
}

}  // namespace
}  // namespace quicsand::core
