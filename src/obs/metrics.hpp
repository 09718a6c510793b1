// Metrics registry: named counters, gauges and log-linear histograms.
//
// The pipeline, the pcap readers and the online detector are instrumented
// unconditionally but observe nothing unless a registry is attached — each
// instrumentation site keeps a raw Counter*/Histogram* that is nullptr
// when no sink is configured, so the hot-path cost without observability
// is a single pointer check (see DESIGN.md §7 for the cost model).
//
// With a registry attached the write path stays lock-free: counters and
// histograms accumulate into util::StripedAdder cells (relaxed atomics on
// a per-thread cache line), so pool workers, the capture loop and detector
// callbacks can all increment the same metric without synchronization.
// Reads (snapshot/export) sum the stripes; registration takes a mutex but
// happens once per metric, not per observation.
//
// Exports: Prometheus text exposition (to_prometheus) and a JSON snapshot
// (to_json), both with deterministic (sorted-by-name) ordering so golden
// tests can pin the formats.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "util/sharded_counter.hpp"
#include "util/sync.hpp"

namespace quicsand::obs {

/// Monotonic counter. add() is wait-free; value() sums the stripes.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { cells_.add(n); }
  [[nodiscard]] std::uint64_t value() const noexcept { return cells_.value(); }

 private:
  util::StripedAdder cells_;
};

/// Last-write-wins signed value (queue depths, open sessions, shard
/// sizes). set/add are relaxed atomics.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the returned reference stays valid for the registry's
  /// lifetime. Names use dotted paths ("pipeline.packets"); exports
  /// sanitize them per format. `help` is kept from the first registration.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// Log-linear quantile histogram (no bounds choice; see
  /// obs/histogram.hpp for the error bound). Exported as a Prometheus
  /// summary and in the JSON "histograms" section.
  Histogram& histogram(const std::string& name, const std::string& help = "");

  /// Prometheus text exposition format (metric names sanitized to
  /// [a-zA-Z0-9_], dots become underscores; counters get the
  /// conventional `_total` suffix; HELP text is escaped per the format).
  [[nodiscard]] std::string to_prometheus() const;

  /// Point-in-time name/value lists (sorted by name), for surfaces that
  /// derive their own rendering — the admin server's /stats throughput
  /// section reads these instead of re-parsing an export.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_snapshot() const;
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>>
  gauge_snapshot() const;
  /// Histogram snapshots (count/sum/max + quantiles, sorted by name);
  /// the TSDB sampler records these as `<name>.count/.sum` plus
  /// `<name>.p50/.p90/.p99` gauge series.
  struct HistogramTotals {
    std::string name;
    Histogram::Snapshot snap;
  };
  [[nodiscard]] std::vector<HistogramTotals> histogram_snapshot() const;
  /// JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  [[nodiscard]] std::string to_json() const;
  /// Write to_json() to `path`; returns false if the file cannot be
  /// written.
  bool write_json_file(const std::string& path) const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable util::Mutex mutex_{util::LockRank::kMetrics, "metrics_registry"};
  /// Sorted => deterministic export. The map is guarded; the pointed-to
  /// Counter/Gauge/Histogram objects are lock-free and safely escape the
  /// lock (they live until the registry dies, and never move).
  std::map<std::string, Entry> entries_ QS_GUARDED_BY(mutex_);
};

}  // namespace quicsand::obs
