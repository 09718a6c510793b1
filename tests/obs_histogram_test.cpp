// obs::Histogram: the log-linear geometry's relative-error bound, the
// merge-equals-single-recorder guarantee, and concurrent record/read
// safety (the tsan preset runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "util/rng.hpp"

namespace quicsand {
namespace {

using obs::Histogram;

TEST(LatencyGeometry, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 32; ++v) {
    const auto idx = Histogram::index_of(v);
    EXPECT_EQ(Histogram::bucket_lower(idx), v);
    EXPECT_EQ(Histogram::bucket_upper(idx), v);
    EXPECT_EQ(Histogram::bucket_representative(idx), v);
  }
}

TEST(LatencyGeometry, BucketsPartitionTheRange) {
  // Bucket edges tile u64 with no gap and no overlap: bucket i+1 starts
  // exactly one past bucket i's upper edge, and the last bucket ends at
  // the maximum value.
  const auto n = Histogram::bucket_count();
  EXPECT_EQ(Histogram::bucket_lower(0), 0u);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(Histogram::bucket_upper(i) + 1,
              Histogram::bucket_lower(i + 1))
        << "gap or overlap after bucket " << i;
  }
  EXPECT_EQ(Histogram::bucket_upper(n - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(LatencyGeometry, IndexOfRoundTripsEveryBucketEdge) {
  const auto n = Histogram::bucket_count();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Histogram::index_of(Histogram::bucket_lower(i)),
              i);
    EXPECT_EQ(Histogram::index_of(Histogram::bucket_upper(i)),
              i);
    const auto rep = Histogram::bucket_representative(i);
    EXPECT_GE(rep, Histogram::bucket_lower(i));
    EXPECT_LE(rep, Histogram::bucket_upper(i));
  }
}

TEST(LatencyGeometry, RepresentativeErrorBoundHoldsEverywhere) {
  // The documented guarantee: reconstructing any value >= 32 from its
  // bucket representative errs by at most kMaxRelativeError (1/32).
  // Check both edges of every bucket — the worst cases by construction.
  const auto n = Histogram::bucket_count();
  for (std::size_t i = Histogram::index_of(32); i < n; ++i) {
    const auto rep = Histogram::bucket_representative(i);
    for (const std::uint64_t v :
         {Histogram::bucket_lower(i), Histogram::bucket_upper(i)}) {
      const double error =
          v > rep ? static_cast<double>(v - rep) : static_cast<double>(rep - v);
      EXPECT_LE(error / static_cast<double>(v),
                Histogram::kMaxRelativeError)
          << "bucket " << i << " value " << v << " representative " << rep;
    }
  }
}

TEST(LatencyHistogramTest, QuantileWithinBoundAcrossMagnitudes) {
  // Property test across nine decades: quantiles of a recorded sample
  // set stay within the relative-error bound of the true order
  // statistic computed from the sorted samples.
  util::Rng rng(7);
  for (const std::uint64_t scale :
       {std::uint64_t{1}, std::uint64_t{100}, std::uint64_t{10'000},
        std::uint64_t{1'000'000}, std::uint64_t{100'000'000},
        std::uint64_t{10'000'000'000}}) {
    Histogram hist;
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t v = rng.uniform_range(0, 99) * scale + i % 50;
      samples.push_back(v);
      hist.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const std::size_t rank =
          q <= 0.0 ? 0
                   : std::min<std::size_t>(
                         samples.size() - 1,
                         static_cast<std::size_t>(
                             std::ceil(q * static_cast<double>(
                                               samples.size()))) -
                             1);
      const double truth = static_cast<double>(samples[rank]);
      const double got = static_cast<double>(hist.quantile(q));
      const double tolerance =
          std::max(1.0, truth * Histogram::kMaxRelativeError);
      EXPECT_NEAR(got, truth, tolerance)
          << "scale " << scale << " q " << q;
    }
  }
}

TEST(LatencyHistogramTest, CountSumMaxAreExact) {
  Histogram hist;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < 1000; v += 7) {
    hist.record(v);
    sum += v;
  }
  EXPECT_EQ(hist.count(), 143u);
  EXPECT_EQ(hist.sum(), sum);
  EXPECT_EQ(hist.max(), 994u);  // exact, not bucket-rounded
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 143u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, 994u);
}

TEST(LatencyHistogramTest, EmptyHistogramIsAllZero) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile(0.5), 0u);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.p999, 0u);
  EXPECT_EQ(snap.max, 0u);
}

TEST(ScopedLatencyTest, RecordsOneSampleOnlyWhenAttached) {
  Histogram hist;
  {
    const obs::ScopedLatency timed(&hist);
    const obs::ScopedLatency untimed(nullptr);
  }
  EXPECT_EQ(hist.count(), 1u);
}

TEST(LatencyHistogramTest, MergeEqualsSingleRecorder) {
  // Three shard-local recorders merged in different orders must agree
  // bucket-for-bucket with one recorder that saw the union — the
  // property that makes per-shard recording safe.
  util::Rng rng(11);
  Histogram a, b, c, single;
  std::vector<Histogram*> shards = {&a, &b, &c};
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform_range(0, 50'000'000);
    shards[static_cast<std::size_t>(i) % 3]->record(v);
    single.record(v);
  }

  // (a + b) + c
  Histogram left;
  left.merge_from(a);
  left.merge_from(b);
  left.merge_from(c);
  // c + (b + a)
  Histogram right;
  right.merge_from(c);
  right.merge_from(b);
  right.merge_from(a);

  EXPECT_EQ(left.bucket_counts(), single.bucket_counts());
  EXPECT_EQ(right.bucket_counts(), single.bucket_counts());
  EXPECT_EQ(left.count(), single.count());
  EXPECT_EQ(left.sum(), single.sum());
  EXPECT_EQ(left.max(), single.max());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(left.quantile(q), single.quantile(q)) << "q " << q;
    EXPECT_EQ(right.quantile(q), single.quantile(q)) << "q " << q;
  }
}

TEST(LatencyHistogramTest, ConcurrentRecordAndQuantile) {
  // 4 writers + a reader hammering quantile/snapshot: tsan coverage for
  // the lock-free claim, and the final totals must be exact.
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = hist.snapshot();
      // A mid-flight snapshot is a valid histogram of a subset: its
      // quantiles are bounded by the largest value any writer records.
      EXPECT_LE(snap.p999, 8 * kPerThread);
      (void)hist.quantile(0.5);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        hist.record(i + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  const std::uint64_t expected = kPerThread * static_cast<std::uint64_t>(kThreads);
  EXPECT_EQ(hist.count(), expected);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, expected);
  EXPECT_EQ(snap.max, kPerThread - 1 + static_cast<std::uint64_t>(kThreads) - 1);
}

}  // namespace
}  // namespace quicsand
