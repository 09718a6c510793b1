#include "obs/histogram.hpp"

#include <bit>
#include <chrono>
#include <cmath>

namespace quicsand::obs {
namespace {

// Smallest octave with sub-bucketing; values below 2^kOctave0 are exact.
constexpr unsigned kOctave0 = Histogram::kSubBucketBits;

}  // namespace

std::uint64_t steady_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Histogram::Histogram()
    : buckets_(new std::atomic<std::uint64_t>[kBuckets]) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_count() noexcept { return kBuckets; }

std::size_t Histogram::index_of(std::uint64_t value) noexcept {
  if (value < kLinear) {
    return static_cast<std::size_t>(value);
  }
  const unsigned exponent = 63U - static_cast<unsigned>(std::countl_zero(value));
  // Top kSubBucketBits bits of the value: in [kHalf, kLinear) because the
  // leading bit is set. Shifting by (exponent - (kSubBucketBits - 1)) keeps
  // exactly kSubBucketBits bits.
  const std::uint64_t sub = value >> (exponent - (kSubBucketBits - 1U));
  return kLinear + (exponent - kOctave0) * kHalf +
         (static_cast<std::size_t>(sub) - kHalf);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) noexcept {
  if (index < kLinear) {
    return static_cast<std::uint64_t>(index);
  }
  const std::size_t off = index - kLinear;
  const unsigned exponent = kOctave0 + static_cast<unsigned>(off / kHalf);
  const std::uint64_t sub = kHalf + (off % kHalf);
  // Width within octave e is 2^(e - (kSubBucketBits - 1)).
  return sub << (exponent - (kSubBucketBits - 1U));
}

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index < kLinear) {
    return static_cast<std::uint64_t>(index);
  }
  const std::size_t off = index - kLinear;
  const unsigned exponent = kOctave0 + static_cast<unsigned>(off / kHalf);
  const std::uint64_t width = std::uint64_t{1} << (exponent -
                                                   (kSubBucketBits - 1U));
  return bucket_lower(index) + (width - 1);
}

std::uint64_t Histogram::bucket_representative(
    std::size_t index) noexcept {
  if (index < kLinear) {
    return static_cast<std::uint64_t>(index);
  }
  const std::size_t off = index - kLinear;
  const unsigned exponent = kOctave0 + static_cast<unsigned>(off / kHalf);
  const std::uint64_t width = std::uint64_t{1} << (exponent -
                                                   (kSubBucketBits - 1U));
  // Midpoint; the last octave's midpoints still fit in u64 because the
  // lower edge has the top bit set and width/2 <= 2^58.
  return bucket_lower(index) + width / 2;
}

void Histogram::record(std::uint64_t value) noexcept {
  buckets_[index_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.add(1);
  sum_.add(value);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void Histogram::merge_from(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
  count_.add(other.count());
  sum_.add(other.sum());
  const std::uint64_t other_max = other.max();
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (other_max > seen && !max_.compare_exchange_weak(
                                 seen, other_max, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

// Quantile over a materialized bucket copy: representative of the bucket
// holding the ceil(q * total)-th smallest observation.
std::uint64_t quantile_of(const std::vector<std::uint64_t>& buckets,
                          std::uint64_t total, double q) {
  if (total == 0) {
    return 0;
  }
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(total)));
  if (target == 0) {
    target = 1;
  }
  if (target > total) {
    target = total;
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= target) {
      return Histogram::bucket_representative(i);
    }
  }
  return Histogram::bucket_representative(buckets.size() - 1);
}

}  // namespace

std::uint64_t Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> buckets = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t n : buckets) {
    total += n;
  }
  return quantile_of(buckets, total, q);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  const std::vector<std::uint64_t> buckets = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t n : buckets) {
    total += n;
  }
  // Bucket-derived count keeps the quantiles and the count consistent even
  // under concurrent writes; sum/max are the striped/atomic totals.
  snap.count = total;
  snap.sum = sum();
  snap.max = max();
  snap.p50 = quantile_of(buckets, total, 0.50);
  snap.p90 = quantile_of(buckets, total, 0.90);
  snap.p99 = quantile_of(buckets, total, 0.99);
  snap.p999 = quantile_of(buckets, total, 0.999);
  return snap;
}

}  // namespace quicsand::obs
