// Cadenced bridge from the MetricsRegistry (instantaneous values) to the
// TimeSeriesStore (retained history).
//
// One sample pass snapshots every counter and gauge in the registry, and
// every histogram as `<name>.count/.sum` plus `<name>.p50/.p90/.p99`
// gauge series, so quantile history reaches /tsdb, /dash and the flight
// recorder. It records them into the store under the metric's dotted
// name, then drains any new EventLog entries into annotations pinned to
// the same sample clock. The pass runs on its own
// thread every `cadence` (default 1 s) — never on the packet hot path —
// and costs O(series) per tick; the BM_Sampler_Pass micro-benchmark
// measures one pass against the series count (EXPERIMENTS.md).
//
// The clock is injectable (default: wall microseconds since the Unix
// epoch, so /tsdb timestamps line up with QSL1 capture timestamps and
// detector event times). Tests drive sample_once() with a manual clock
// and no thread, which makes every /tsdb/query body deterministic.
//
// The sampler times itself into the registry (tsdb.sample_us histogram,
// tsdb.samples counter) so its own overhead is part of the history it
// retains.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

#include "util/sync.hpp"
#include "util/time.hpp"

namespace quicsand::obs {

class MetricsRegistry;
class EventLog;
class TimeSeriesStore;
class Counter;
class Histogram;

struct SamplerConfig {
  MetricsRegistry* metrics = nullptr;  ///< source; required
  TimeSeriesStore* store = nullptr;    ///< sink; required
  EventLog* events = nullptr;          ///< optional: alert annotations
  util::Duration cadence = 1 * util::kSecond;
  /// Sample timestamp source, microseconds; defaults to wall clock
  /// (system_clock) so live samples share an axis with QSL1 frames.
  std::function<std::uint64_t()> clock;
  /// Record tsdb.sample_us / tsdb.samples into the registry. Turn off
  /// for golden tests that pin the full series catalog.
  bool self_metrics = true;
};

class Sampler {
 public:
  explicit Sampler(SamplerConfig config);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// One synchronous pass at clock()-now. Safe without start(); this is
  /// what tests drive with a manual clock.
  void sample_once();

  /// Spawn the cadence thread. False when metrics/store are missing.
  bool start();
  /// Stop and join; idempotent, also called by the destructor. The
  /// final pass taken on stop() makes shutdown dumps include the last
  /// partial interval.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t passes() const {
    return passes_.load(std::memory_order_relaxed);
  }

 private:
  void run_loop();

  SamplerConfig config_;
  std::size_t events_seen_ = 0;  ///< sampler thread / sample_once caller only
  Counter* samples_counter_ = nullptr;
  Histogram* sample_cost_us_ = nullptr;

  /// Serializes start()/stop() against each other. Two concurrent
  /// stop() calls used to both pass the lock-free running_ check and
  /// double-join thread_ (std::terminate); the lifecycle lock makes the
  /// loser wait until the winner's join finishes, then observe the
  /// joined thread and return. run_loop() never takes this lock, so
  /// joining while holding it cannot deadlock.
  util::Mutex lifecycle_mutex_{util::LockRank::kSamplerLifecycle,
                               "sampler_lifecycle"};
  /// Wakes the cadence thread; guards the stop flag it polls.
  util::Mutex mutex_{util::LockRank::kSamplerState, "sampler_state"};
  util::CondVar cv_;
  std::thread thread_ QS_GUARDED_BY(lifecycle_mutex_);
  std::atomic<bool> running_{false};  ///< lock-free mirror for running()
  bool stopping_ QS_GUARDED_BY(mutex_) = false;
  std::atomic<std::uint64_t> passes_{0};
};

}  // namespace quicsand::obs
