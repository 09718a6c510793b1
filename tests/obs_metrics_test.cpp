// Metrics registry: concurrent increments and observations merge
// losslessly across threads, and both export formats are pinned by
// golden files.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace quicsand::obs {
namespace {

TEST(ObsMetrics, CounterMergesConcurrentIncrements) {
  MetricsRegistry registry;
  auto& counter = registry.counter("test.concurrent", "concurrency test");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsMetrics, HistogramMergesConcurrentObservations) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("test.hist", "concurrency test");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.record(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  // Values below 32 have exact buckets: bucket t holds thread t's samples.
  const auto buckets = histogram.bucket_counts();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(buckets[static_cast<std::size_t>(t)], kPerThread) << t;
  }
  // sum = kPerThread * (0+1+...+7)
  EXPECT_EQ(histogram.sum(), kPerThread * 28);
}

TEST(ObsMetrics, GetOrCreateReturnsSameInstance) {
  MetricsRegistry registry;
  auto& a = registry.counter("same.counter", "first registration");
  auto& b = registry.counter("same.counter", "ignored help");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  auto& h1 = registry.histogram("same.hist", "first registration");
  auto& h2 = registry.histogram("same.hist", "ignored help");
  EXPECT_EQ(&h1, &h2);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  auto& gauge = registry.gauge("test.gauge");
  gauge.set(10);
  gauge.add(-12);
  EXPECT_EQ(gauge.value(), -2);
}

/// A small registry used by both golden tests: counter=3, gauge=-2, a
/// histogram fed 0,1,2,5 and one fed 1,2,500. Samples below 32 sit in
/// the exact region, so c.hist's p50 is exactly 1 and d.lat's exactly
/// 2; 500 lands in bucket [496,512) whose midpoint representative is
/// 504 — the golden pins the log-linear geometry through the export
/// path.
void populate(MetricsRegistry& registry) {
  registry.counter("a.count", "things counted").add(3);
  registry.gauge("b.gauge").set(-2);
  auto& histogram = registry.histogram("c.hist", "a histogram");
  for (const std::uint64_t sample : {0, 1, 2, 5}) histogram.record(sample);
  auto& latency = registry.histogram("d.lat", "a latency");
  for (const std::uint64_t sample : {1, 2, 500}) latency.record(sample);
}

TEST(ObsMetrics, GoldenPrometheusExposition) {
  MetricsRegistry registry;
  populate(registry);
  EXPECT_EQ(registry.to_prometheus(),
            "# HELP quicsand_a_count_total things counted\n"
            "# TYPE quicsand_a_count_total counter\n"
            "quicsand_a_count_total 3\n"
            "# TYPE quicsand_b_gauge gauge\n"
            "quicsand_b_gauge -2\n"
            "# HELP quicsand_c_hist a histogram\n"
            "# TYPE quicsand_c_hist summary\n"
            "quicsand_c_hist{quantile=\"0.5\"} 1\n"
            "quicsand_c_hist{quantile=\"0.9\"} 5\n"
            "quicsand_c_hist{quantile=\"0.99\"} 5\n"
            "quicsand_c_hist{quantile=\"0.999\"} 5\n"
            "quicsand_c_hist_sum 8\n"
            "quicsand_c_hist_count 4\n"
            "# HELP quicsand_d_lat a latency\n"
            "# TYPE quicsand_d_lat summary\n"
            "quicsand_d_lat{quantile=\"0.5\"} 2\n"
            "quicsand_d_lat{quantile=\"0.9\"} 504\n"
            "quicsand_d_lat{quantile=\"0.99\"} 504\n"
            "quicsand_d_lat{quantile=\"0.999\"} 504\n"
            "quicsand_d_lat_sum 503\n"
            "quicsand_d_lat_count 3\n");
}

TEST(ObsMetrics, PrometheusTotalSuffixNotDoubled) {
  MetricsRegistry registry;
  registry.counter("pkts.total").add(1);
  EXPECT_EQ(registry.to_prometheus(),
            "# TYPE quicsand_pkts_total counter\n"
            "quicsand_pkts_total 1\n");
}

TEST(ObsMetrics, PrometheusHelpEscapesNewlineAndBackslash) {
  MetricsRegistry registry;
  registry.counter("esc", "line one\nback\\slash").add(1);
  EXPECT_EQ(registry.to_prometheus(),
            "# HELP quicsand_esc_total line one\\nback\\\\slash\n"
            "# TYPE quicsand_esc_total counter\n"
            "quicsand_esc_total 1\n");
}

TEST(ObsMetrics, SnapshotsListRegisteredValuesInNameOrder) {
  MetricsRegistry registry;
  populate(registry);
  const auto counters = registry.counter_snapshot();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "a.count");
  EXPECT_EQ(counters[0].second, 3u);
  const auto gauges = registry.gauge_snapshot();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].first, "b.gauge");
  EXPECT_EQ(gauges[0].second, -2);
  const auto histograms = registry.histogram_snapshot();
  ASSERT_EQ(histograms.size(), 2u);
  EXPECT_EQ(histograms[0].name, "c.hist");
  EXPECT_EQ(histograms[0].snap.count, 4u);
  EXPECT_EQ(histograms[1].name, "d.lat");
  EXPECT_EQ(histograms[1].snap.count, 3u);
  EXPECT_EQ(histograms[1].snap.max, 500u);
}

TEST(ObsMetrics, GoldenJsonSnapshot) {
  MetricsRegistry registry;
  populate(registry);
  EXPECT_EQ(registry.to_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a.count\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"b.gauge\": -2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"c.hist\": {\"count\": 4, \"sum\": 8, \"max\": 5, "
            "\"p50\": 1, \"p90\": 5, \"p99\": 5, \"p999\": 5},\n"
            "    \"d.lat\": {\"count\": 3, \"sum\": 503, \"max\": 500, "
            "\"p50\": 2, \"p90\": 504, \"p99\": 504, \"p999\": 504}\n"
            "  }\n"
            "}\n");
}

TEST(ObsMetrics, EmptyRegistryExportsAreWellFormed) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.to_prometheus(), "");
  EXPECT_EQ(registry.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

}  // namespace
}  // namespace quicsand::obs
