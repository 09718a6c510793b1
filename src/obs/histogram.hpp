// Lock-free log-linear histogram with a provable relative-error bound:
// the one histogram type in the repo. It backs every duration metric
// (*_us: detection latency, pipeline stage times, sampler cost) and the
// size metrics (records per shard, datagrams per recvmmsg batch).
//
// An HDR-style log-linear layout covers the full u64 range with one
// accuracy guarantee, so no metric has to choose bucket bounds. With
// kSubBucketBits = 5 the layout is:
//
//   values  0 .. 31          one bucket per value (exact)
//   each octave [2^e, 2^(e+1)), e >= 5
//                            16 sub-buckets of width 2^(e-4)
//
// A bucket's representative is its midpoint, so reconstructing any
// recorded value v from its bucket is off by at most half a bucket
// width. Within octave e the width is w = 2^(e-4) and every value is at
// least 16*w, hence
//
//   |representative - v| / v  <=  (w/2) / (16*w)  =  1/32  =  2^-5
//
// i.e. every quantile query is within kMaxRelativeError (3.125%) of a
// true recorded value — the bound tests/obs_histogram_test.cpp pins
// across magnitudes. Values below 32 are exact.
//
// Concurrency: record() is two striped adds plus one relaxed fetch_add
// on the bucket and a CAS loop for the max — no locks, safe from any
// number of threads (shard workers, the receive loop, detector
// callbacks). Readers (quantile/snapshot) copy the bucket array with
// relaxed loads; a snapshot taken during concurrent writes is a valid
// histogram of some subset of them.
//
// Merging: every histogram shares one static geometry, so merge_from()
// is an element-wise add and merged quantiles are *exactly* what a
// single recorder fed the union of samples would report (associative
// and commutative — pinned by test). That is what makes per-shard
// recording cheap: shards record locally and the exporter merges.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/sharded_counter.hpp"

namespace quicsand::obs {

class Histogram {
 public:
  /// Sub-buckets per octave = 2^kSubBucketBits; also the precision knob.
  static constexpr unsigned kSubBucketBits = 5;
  /// Quantile reconstruction error bound: 2^-kSubBucketBits.
  static constexpr double kMaxRelativeError = 1.0 / 32.0;

  Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Record one non-negative sample (a duration in µs or a size).
  /// Lock-free, wait-free except the max CAS loop.
  void record(std::uint64_t value) noexcept;

  /// Element-wise add of `other`'s buckets (and count/sum/max) into
  /// this histogram. Same geometry always, so the merged quantiles
  /// equal a single recorder's — associative and commutative.
  void merge_from(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.value();
  }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_.value(); }
  /// Largest recorded value, exact (not bucket-rounded). 0 when empty.
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Value at quantile q in [0, 1] (clamped): the representative of the
  /// bucket holding the ceil(q * count)-th smallest observation, within
  /// kMaxRelativeError of a true recorded value. 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// One consistent pass over the buckets: count/sum/max plus the four
  /// standard quantiles, all from the same bucket copy.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Relaxed copy of the bucket array (tests pin merge exactness on it).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  // Static geometry, exposed so the error-bound test can check every
  // bucket's representative against its edges.
  [[nodiscard]] static std::size_t bucket_count() noexcept;
  [[nodiscard]] static std::size_t index_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;
  [[nodiscard]] static std::uint64_t bucket_representative(
      std::size_t index) noexcept;

 private:
  static constexpr std::size_t kHalf = std::size_t{1}
                                       << (kSubBucketBits - 1);  // 16
  static constexpr std::size_t kLinear = std::size_t{1}
                                         << kSubBucketBits;  // 32
  // Octaves 5..63 (64 - kSubBucketBits of them) each contribute kHalf
  // sub-buckets after the linear region: 32 + 59*16 = 976 buckets,
  // ~7.6 KiB of atomics.
  static constexpr std::size_t kBuckets =
      kLinear + (64 - kSubBucketBits) * kHalf;

  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  util::StripedAdder count_;
  util::StripedAdder sum_;
  std::atomic<std::uint64_t> max_{0};
};

/// Steady-clock microseconds, the time base of every *_us histogram.
[[nodiscard]] std::uint64_t steady_us() noexcept;

/// Records the scope's duration into `hist` on destruction; reads the
/// clock only when a histogram is attached, so unobserved code stays free.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist) noexcept
      : hist_(hist), start_(hist != nullptr ? steady_us() : 0) {}
  ~ScopedLatency() {
    if (hist_ != nullptr) hist_->record(steady_us() - start_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  std::uint64_t start_;
};

}  // namespace quicsand::obs
