// TimeSeriesStore / Sampler / FlightRecorder: downsampling semantics at
// tier boundaries, ring wraparound at the retention edge, query-range
// behavior, and byte-pinned golden JSON under an injected manual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tsdb.hpp"

using namespace quicsand;

namespace {

constexpr std::uint64_t kSecUs = 1'000'000;

/// A 3-tier store small enough to wrap in a test: 1 s x 4, 10 s x 6,
/// 60 s x 5.
obs::TsdbConfig tiny_config() {
  obs::TsdbConfig config;
  config.tiers = {{1 * util::kSecond, 4},
                  {10 * util::kSecond, 6},
                  {60 * util::kSecond, 5}};
  return config;
}

TEST(TimeSeriesStore, AggregatesWithinOneBucket) {
  obs::TimeSeriesStore store(tiny_config());
  // Three raw samples inside the same 1 s bucket.
  EXPECT_TRUE(store.record("x", obs::SeriesKind::kGauge, 5 * kSecUs + 100, 7));
  EXPECT_TRUE(store.record("x", obs::SeriesKind::kGauge, 5 * kSecUs + 200, 3));
  EXPECT_TRUE(store.record("x", obs::SeriesKind::kGauge, 5 * kSecUs + 300, 5));

  const auto result = store.query("x", 0, 10 * kSecUs, 0);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.step_us, kSecUs);
  ASSERT_EQ(result.points.size(), 1u);
  const auto& p = result.points[0];
  EXPECT_EQ(p.t_us, 5 * kSecUs);
  EXPECT_EQ(p.min, 3);
  EXPECT_EQ(p.max, 7);
  EXPECT_EQ(p.sum, 15);
  EXPECT_EQ(p.last, 5);
  EXPECT_EQ(p.count, 3u);
}

TEST(TimeSeriesStore, TierBoundaryDownsampling) {
  obs::TimeSeriesStore store(tiny_config());
  // One sample per second for 20 s: tier 0 (1 s) sees one sample per
  // bucket, tier 1 (10 s) folds ten raw samples into each bucket.
  for (std::uint64_t t = 0; t < 20; ++t) {
    store.record("c", obs::SeriesKind::kCounter, t * kSecUs,
                 static_cast<std::int64_t>(t * 100));
  }
  // Asking for the full range at 10 s resolution hits tier 1.
  const auto coarse = store.query("c", 0, 20 * kSecUs, 10 * kSecUs);
  ASSERT_TRUE(coarse.found);
  EXPECT_EQ(coarse.step_us, 10 * kSecUs);
  ASSERT_EQ(coarse.points.size(), 2u);
  // Bucket [0,10): raw values 0..900.
  EXPECT_EQ(coarse.points[0].t_us, 0u);
  EXPECT_EQ(coarse.points[0].min, 0);
  EXPECT_EQ(coarse.points[0].max, 900);
  EXPECT_EQ(coarse.points[0].sum, 4500);
  EXPECT_EQ(coarse.points[0].last, 900);
  EXPECT_EQ(coarse.points[0].count, 10u);
  // Bucket [10,20): raw values 1000..1900.
  EXPECT_EQ(coarse.points[1].t_us, 10 * kSecUs);
  EXPECT_EQ(coarse.points[1].min, 1000);
  EXPECT_EQ(coarse.points[1].max, 1900);
  EXPECT_EQ(coarse.points[1].last, 1900);
  EXPECT_EQ(coarse.points[1].count, 10u);

  // The finest tier only retains its 4-bucket window ending at the
  // newest sample (16..19 s); asking for exactly that window stays on
  // tier 0.
  const auto fine = store.query("c", 16 * kSecUs, 20 * kSecUs, 0);
  EXPECT_EQ(fine.step_us, kSecUs);
  ASSERT_EQ(fine.points.size(), 4u);
  EXPECT_EQ(fine.points.front().t_us, 16 * kSecUs);
  EXPECT_EQ(fine.points.back().t_us, 19 * kSecUs);
  EXPECT_EQ(fine.points.back().last, 1900);
}

TEST(TimeSeriesStore, RingWraparoundEvictsOldBuckets) {
  obs::TimeSeriesStore store(tiny_config());
  // 100 one-second buckets through a 4-slot tier-0 ring: ~25 full
  // wraps. Only the last 4 survive, each with exactly its own value.
  for (std::uint64_t t = 0; t < 100; ++t) {
    store.record("w", obs::SeriesKind::kGauge, t * kSecUs,
                 static_cast<std::int64_t>(t));
  }
  const auto result = store.query("w", 96 * kSecUs, 200 * kSecUs, 0);
  ASSERT_TRUE(result.found);
  ASSERT_EQ(result.points.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.points[i].t_us, (96 + i) * kSecUs);
    EXPECT_EQ(result.points[i].last, static_cast<std::int64_t>(96 + i));
    EXPECT_EQ(result.points[i].count, 1u);
  }
  // A sample older than the ring's window is ignored, not resurrected:
  // the slot for t=97 still holds bucket 97 after a stale write of
  // t=93 (same slot modulo 4).
  store.record("w", obs::SeriesKind::kGauge, 93 * kSecUs, 9999);
  const auto after = store.query("w", 96 * kSecUs, 100 * kSecUs, 0);
  ASSERT_EQ(after.points.size(), 4u);
  EXPECT_EQ(after.points[1].t_us, 97 * kSecUs);
  EXPECT_EQ(after.points[1].last, 97);
}

TEST(TimeSeriesStore, EmptyAndReversedRanges) {
  obs::TimeSeriesStore store(tiny_config());
  store.record("e", obs::SeriesKind::kCounter, 50 * kSecUs, 1);
  // A range entirely before retention: empty points, series still found.
  const auto early = store.query("e", 0, 10 * kSecUs, 0);
  EXPECT_TRUE(early.found);
  EXPECT_TRUE(early.points.empty());
  // A range entirely after the data.
  const auto late = store.query("e", 300 * kSecUs, 400 * kSecUs, 0);
  EXPECT_TRUE(late.found);
  EXPECT_TRUE(late.points.empty());
  // Reversed range: empty, not fatal.
  const auto reversed = store.query("e", 60 * kSecUs, 40 * kSecUs, 0);
  EXPECT_TRUE(reversed.found);
  EXPECT_TRUE(reversed.points.empty());
  // Unknown series.
  EXPECT_FALSE(store.query("nope", 0, 100, 0).found);
}

TEST(TimeSeriesStore, TierEscalationForOldRanges) {
  obs::TimeSeriesStore store(tiny_config());
  // 120 s of data: tier 0 retains 4 s, tier 1 retains 60 s, tier 2 all.
  for (std::uint64_t t = 0; t < 120; ++t) {
    store.record("h", obs::SeriesKind::kCounter, t * kSecUs,
                 static_cast<std::int64_t>(t));
  }
  // from within the finest window: finest tier.
  EXPECT_EQ(store.query("h", 117 * kSecUs, 120 * kSecUs, 0).step_us, kSecUs);
  // from 80 s back: needs tier 1 (10 s).
  EXPECT_EQ(store.query("h", 70 * kSecUs, 120 * kSecUs, 0).step_us,
            10 * kSecUs);
  // from the very beginning: coarsest tier.
  EXPECT_EQ(store.query("h", 0, 120 * kSecUs, 0).step_us, 60 * kSecUs);
  // A short-lived series queried with from=0 stays on the finest tier:
  // `from` is clamped to the series' first sample before escalation.
  store.record("young", obs::SeriesKind::kGauge, 119 * kSecUs, 1);
  EXPECT_EQ(store.query("young", 0, 200 * kSecUs, 0).step_us, kSecUs);
}

TEST(TimeSeriesStore, SeriesCapDropsAndCounts) {
  obs::TsdbConfig config = tiny_config();
  config.max_series = 2;
  obs::TimeSeriesStore store(config);
  EXPECT_TRUE(store.record("a", obs::SeriesKind::kCounter, 0, 1));
  EXPECT_TRUE(store.record("b", obs::SeriesKind::kCounter, 0, 1));
  EXPECT_FALSE(store.record("c", obs::SeriesKind::kCounter, 0, 1));
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.series_dropped(), 1u);
  // Existing series keep recording.
  EXPECT_TRUE(store.record("a", obs::SeriesKind::kCounter, kSecUs, 2));
}

TEST(TimeSeriesStore, RatePerSecondFromFinestTier) {
  obs::TimeSeriesStore store(tiny_config());
  // 100 packets/s for 4 s.
  for (std::uint64_t t = 0; t < 4; ++t) {
    store.record("pps", obs::SeriesKind::kCounter, t * kSecUs,
                 static_cast<std::int64_t>(t * 100));
  }
  EXPECT_DOUBLE_EQ(store.rate_per_s("pps", 10 * util::kSecond), 100.0);
  EXPECT_DOUBLE_EQ(store.rate_per_s("nope", 10 * util::kSecond), 0.0);
}

TEST(TimeSeriesStore, AnnotationRingEvictsOldest) {
  obs::TsdbConfig config = tiny_config();
  config.max_annotations = 2;
  obs::TimeSeriesStore store(config);
  for (std::uint64_t i = 0; i < 3; ++i) {
    obs::Annotation a;
    a.t_us = i * kSecUs;
    a.kind = "alert_fired";
    a.victim = "10.0.0." + std::to_string(i);
    store.annotate(a);
  }
  const auto kept = store.annotations(0, 10 * kSecUs);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].victim, "10.0.0.1");
  EXPECT_EQ(kept[1].victim, "10.0.0.2");
}

TEST(TimeSeriesStore, GoldenQueryJson) {
  obs::TimeSeriesStore store(tiny_config());
  store.record("g", obs::SeriesKind::kCounter, 10 * kSecUs, 5);
  store.record("g", obs::SeriesKind::kCounter, 11 * kSecUs, 9);
  obs::Annotation a;
  a.t_us = 11 * kSecUs;
  a.event_time_us = 1500000;
  a.kind = "alert_fired";
  a.victim = "203.0.113.7";
  a.packets = 4200;
  a.peak_pps = 123.5;
  store.annotate(a);

  EXPECT_EQ(store.query_json("g", 0, 20 * kSecUs, 0),
            "{\"series\": \"g\", \"kind\": \"counter\", \"step_us\": 1000000,"
            " \"columns\": [\"t_us\", \"min\", \"max\", \"sum\", \"count\","
            " \"last\"], \"points\": [[10000000, 5, 5, 5, 1, 5],"
            " [11000000, 9, 9, 9, 1, 9]], \"annotations\":"
            " [{\"t_us\": 11000000, \"event_time_us\": 1500000,"
            " \"kind\": \"alert_fired\", \"victim\": \"203.0.113.7\","
            " \"packets\": 4200, \"peak_pps\": 123.500}]}\n");

  EXPECT_EQ(store.series_json(),
            "{\"tiers\": [{\"step_us\": 1000000, \"buckets\": 4},"
            " {\"step_us\": 10000000, \"buckets\": 6},"
            " {\"step_us\": 60000000, \"buckets\": 5}], \"series\":"
            " [{\"name\": \"g\", \"kind\": \"counter\", \"samples\": 2,"
            " \"first_us\": 10000000, \"last_us\": 11000000}],"
            " \"dropped_series\": 0}\n");
}

TEST(Sampler, SamplesRegistryAndDrainsEvents) {
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  obs::TimeSeriesStore store(tiny_config());

  auto& packets = metrics.counter("pipeline.packets");
  auto& depth = metrics.gauge("rings.depth");
  auto& latency = metrics.histogram("alert.latency_us");

  std::uint64_t now_us = 100 * kSecUs;
  obs::SamplerConfig config;
  config.metrics = &metrics;
  config.store = &store;
  config.events = &events;
  config.clock = [&now_us] { return now_us; };
  config.self_metrics = false;  // keep the series catalog exact
  obs::Sampler sampler(config);

  packets.add(500);
  depth.set(7);
  latency.record(50);
  latency.record(2000);
  sampler.sample_once();

  obs::DetectorEvent event;
  event.type = obs::DetectorEventType::kAlertFired;
  event.time = util::Timestamp{} + 42 * util::kSecond;
  event.victim = "198.51.100.9";
  event.packets = 9000;
  event.peak_pps = 777.25;
  events.emit(event);

  now_us += kSecUs;
  packets.add(250);
  sampler.sample_once();

  // Counter, gauge, and the histogram's .count/.sum and quantile series
  // all exist.
  const auto catalog = store.series();
  std::vector<std::string> names;
  names.reserve(catalog.size());
  for (const auto& info : catalog) names.push_back(info.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "alert.latency_us.count", "alert.latency_us.p50",
                "alert.latency_us.p90", "alert.latency_us.p99",
                "alert.latency_us.sum", "pipeline.packets", "rings.depth"}));

  const auto counter = store.query("pipeline.packets", 0, now_us, 0);
  ASSERT_EQ(counter.points.size(), 2u);
  EXPECT_EQ(counter.points[0].last, 500);
  EXPECT_EQ(counter.points[1].last, 750);
  EXPECT_EQ(counter.kind, obs::SeriesKind::kCounter);

  const auto gauge = store.query("rings.depth", 0, now_us, 0);
  EXPECT_EQ(gauge.kind, obs::SeriesKind::kGauge);
  EXPECT_EQ(gauge.points.back().last, 7);

  const auto hist_sum = store.query("alert.latency_us.sum", 0, now_us, 0);
  EXPECT_EQ(hist_sum.kind, obs::SeriesKind::kHistogramSum);
  EXPECT_EQ(hist_sum.points.back().last, 2050);

  // The event became an annotation pinned at the second sample pass,
  // keeping its own timestamp as event_time_us.
  const auto annotations = store.annotations(0, now_us);
  ASSERT_EQ(annotations.size(), 1u);
  EXPECT_EQ(annotations[0].t_us, now_us);
  EXPECT_EQ(annotations[0].event_time_us, (42 * util::kSecond).count());
  EXPECT_EQ(annotations[0].kind, "alert_fired");
  EXPECT_EQ(annotations[0].victim, "198.51.100.9");
  EXPECT_EQ(annotations[0].packets, 9000u);
  EXPECT_DOUBLE_EQ(annotations[0].peak_pps, 777.25);

  // Each event is drained exactly once.
  now_us += kSecUs;
  sampler.sample_once();
  EXPECT_EQ(store.annotations(0, now_us).size(), 1u);
  EXPECT_EQ(sampler.passes(), 3u);
}

TEST(Sampler, ThreadedStartStopTakesFinalSample) {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesStore store(tiny_config());
  metrics.counter("c").add(3);

  obs::SamplerConfig config;
  config.metrics = &metrics;
  config.store = &store;
  config.cadence = 10 * util::kMillisecond;
  obs::Sampler sampler(config);
  ASSERT_TRUE(sampler.start());
  EXPECT_TRUE(sampler.running());
  while (sampler.passes() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.passes(), 3u);  // >= 2 cadence passes + the final one
  EXPECT_GT(store.samples_recorded(), 0u);
}

TEST(Sampler, StartRequiresMetricsAndStore) {
  obs::Sampler missing(obs::SamplerConfig{});
  EXPECT_FALSE(missing.start());
}

TEST(FlightRecorder, GoldenDumpIsDeterministic) {
  obs::TimeSeriesStore store(tiny_config());
  store.record("pps", obs::SeriesKind::kCounter, 100 * kSecUs, 10);
  store.record("pps", obs::SeriesKind::kCounter, 101 * kSecUs, 30);
  obs::Annotation a;
  a.t_us = 101 * kSecUs;
  a.event_time_us = 55;
  a.kind = "attack_closed";
  a.victim = "192.0.2.1";
  a.packets = 77;
  a.peak_pps = 5.0;
  store.annotate(a);

  obs::FlightRecorderConfig config;
  config.store = &store;
  config.window = 30 * util::kSecond;  // clamped to tier-0 retention (4 s)
  obs::FlightRecorder recorder(config);

  const std::string expected =
      "{\"type\": \"meta\", \"now_us\": 101000000, \"from_us\": 97000000,"
      " \"window_s\": 4, \"series\": 1}\n"
      "{\"type\": \"sample\", \"series\": \"pps\", \"kind\": \"counter\","
      " \"t_us\": 100000000, \"min\": 10, \"max\": 10, \"sum\": 10,"
      " \"count\": 1, \"last\": 10}\n"
      "{\"type\": \"sample\", \"series\": \"pps\", \"kind\": \"counter\","
      " \"t_us\": 101000000, \"min\": 30, \"max\": 30, \"sum\": 30,"
      " \"count\": 1, \"last\": 30}\n"
      "{\"type\": \"annotation\", \"t_us\": 101000000,"
      " \"event_time_us\": 55, \"kind\": \"attack_closed\","
      " \"victim\": \"192.0.2.1\", \"packets\": 77,"
      " \"peak_pps\": 5.000}\n";
  EXPECT_EQ(recorder.dump_at(101 * kSecUs), expected);
  // Without a clock, dump() anchors at the store's newest sample: the
  // same bundle, byte for byte, run after run.
  EXPECT_EQ(recorder.dump(), expected);
  EXPECT_EQ(recorder.dump(), recorder.dump());
}

TEST(FlightRecorder, WindowClampsToFinestRetention) {
  obs::TimeSeriesStore store(tiny_config());  // finest tier holds 4 s
  for (std::uint64_t t = 0; t < 10; ++t) {
    store.record("g", obs::SeriesKind::kGauge, t * kSecUs,
                 static_cast<std::int64_t>(t));
  }
  obs::FlightRecorderConfig config;
  config.store = &store;
  config.window = 3600 * util::kSecond;  // way past retention
  obs::FlightRecorder recorder(config);
  const auto dump = recorder.dump_at(9 * kSecUs);
  // Only the finest tier's surviving buckets appear (6..9 s).
  EXPECT_EQ(dump.find("\"t_us\": 5000000"), std::string::npos);
  EXPECT_NE(dump.find("\"t_us\": 6000000"), std::string::npos);
  EXPECT_NE(dump.find("\"t_us\": 9000000"), std::string::npos);
}

// tsan coverage: a writer hammering record()/annotate() while readers
// run query()/series_json()/rate_per_s() concurrently.
TEST(TimeSeriesStore, ConcurrentRecordAndQuery) {
  obs::TimeSeriesStore store(tiny_config());
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::uint64_t t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      store.record("a", obs::SeriesKind::kCounter, t * kSecUs,
                   static_cast<std::int64_t>(t));
      store.record("b", obs::SeriesKind::kGauge, t * kSecUs,
                   static_cast<std::int64_t>(t % 7));
      if (t % 16 == 0) {
        obs::Annotation annotation;
        annotation.t_us = t * kSecUs;
        annotation.kind = "alert_fired";
        store.annotate(annotation);
      }
      ++t;
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)store.query("a", 0, 1'000'000 * kSecUs, 0);
        (void)store.series_json();
        (void)store.rate_per_s("a", 10 * util::kSecond);
        (void)store.annotations(0, 1'000'000 * kSecUs);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_GT(store.samples_recorded(), 0u);
}

// tsan coverage: a running sampler thread racing admin-style scrapes.
TEST(Sampler, ConcurrentSamplingAndScrapes) {
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  obs::TimeSeriesStore store(tiny_config());
  auto& counter = metrics.counter("pipeline.packets");

  obs::SamplerConfig config;
  config.metrics = &metrics;
  config.store = &store;
  config.events = &events;
  config.cadence = 1 * util::kMillisecond;
  obs::Sampler sampler(config);
  ASSERT_TRUE(sampler.start());

  std::atomic<bool> stop{false};
  std::thread ingest([&] {
    while (!stop.load(std::memory_order_relaxed)) counter.add();
  });
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)store.series_json();
      (void)store.query_json("pipeline.packets", 0, ~0ULL, 0);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  ingest.join();
  scraper.join();
  sampler.stop();
  EXPECT_GT(sampler.passes(), 0u);
}

// Regression: two stop() calls used to both pass the lock-free
// running() check and double-join the cadence thread (std::terminate).
// The lifecycle lock now serializes them; the losers must observe the
// already-joined thread and return, and the sampler must restart
// cleanly afterwards.
TEST(Sampler, ConcurrentStopsDoNotDoubleJoin) {
  obs::MetricsRegistry metrics;
  obs::TimeSeriesStore store(tiny_config());
  metrics.counter("c").add(1);

  obs::SamplerConfig config;
  config.metrics = &metrics;
  config.store = &store;
  config.cadence = 1 * util::kMillisecond;
  obs::Sampler sampler(config);

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(sampler.start());
    ASSERT_TRUE(sampler.start());  // idempotent: no second thread
    while (sampler.passes() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i) {
      stoppers.emplace_back([&] { sampler.stop(); });
    }
    for (auto& stopper : stoppers) stopper.join();
    EXPECT_FALSE(sampler.running());
  }
  EXPECT_GT(store.samples_recorded(), 0u);
}

}  // namespace
