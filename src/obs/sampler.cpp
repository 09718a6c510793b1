#include "obs/sampler.hpp"

#include <chrono>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/tsdb.hpp"

namespace quicsand::obs {

namespace {

std::uint64_t wall_clock_us() {
  // This IS the injectable clock's default: production samples share a
  // wall-clock axis with QSL1 frames; tests always inject their own.
  const auto now =  // lint:allow(nondeterministic-source)
      std::chrono::system_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

}  // namespace

Sampler::Sampler(SamplerConfig config) : config_(std::move(config)) {
  if (!config_.clock) config_.clock = wall_clock_us;
  if (config_.cadence.count() <= 0) config_.cadence = 1 * util::kSecond;
  if (config_.self_metrics && config_.metrics != nullptr) {
    samples_counter_ =
        &config_.metrics->counter("tsdb.samples", "TSDB sample passes taken");
    sample_cost_us_ = &config_.metrics->histogram(
        "tsdb.sample_us", "cost of one TSDB sample pass (us)");
  }
}

Sampler::~Sampler() { stop(); }

void Sampler::sample_once() {
  if (config_.metrics == nullptr || config_.store == nullptr) return;
  const auto started = std::chrono::steady_clock::now();
  const auto t_us = config_.clock();
  auto& store = *config_.store;

  for (const auto& [name, value] : config_.metrics->counter_snapshot()) {
    store.record(name, SeriesKind::kCounter, t_us,
                 static_cast<std::int64_t>(value));
  }
  for (const auto& [name, value] : config_.metrics->gauge_snapshot()) {
    store.record(name, SeriesKind::kGauge, t_us, value);
  }
  for (const auto& totals : config_.metrics->histogram_snapshot()) {
    store.record(totals.name + ".count", SeriesKind::kHistogramCount, t_us,
                 static_cast<std::int64_t>(totals.snap.count));
    store.record(totals.name + ".sum", SeriesKind::kHistogramSum, t_us,
                 static_cast<std::int64_t>(totals.snap.sum));
    // Quantiles are instantaneous values, not monotone accumulations, so
    // they go in as gauges — /dash reads them as "last".
    store.record(totals.name + ".p50", SeriesKind::kGauge, t_us,
                 static_cast<std::int64_t>(totals.snap.p50));
    store.record(totals.name + ".p90", SeriesKind::kGauge, t_us,
                 static_cast<std::int64_t>(totals.snap.p90));
    store.record(totals.name + ".p99", SeriesKind::kGauge, t_us,
                 static_cast<std::int64_t>(totals.snap.p99));
  }

  if (config_.events != nullptr) {
    for (const auto& event :
         config_.events->events_since(events_seen_, &events_seen_)) {
      Annotation annotation;
      annotation.t_us = t_us;
      annotation.event_time_us = event.time.count();
      annotation.kind = detector_event_name(event.type);
      annotation.victim = event.victim;
      annotation.packets = event.packets;
      annotation.peak_pps = event.peak_pps;
      annotation.alert_latency_s = event.alert_latency_s;
      annotation.detect_latency_s = event.detect_latency_s;
      store.annotate(std::move(annotation));
    }
  }

  passes_.fetch_add(1, std::memory_order_relaxed);
  if (samples_counter_ != nullptr) samples_counter_->add();
  if (sample_cost_us_ != nullptr) {
    const auto cost =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    sample_cost_us_->record(static_cast<std::uint64_t>(cost));
  }
}

bool Sampler::start() {
  if (config_.metrics == nullptr || config_.store == nullptr) return false;
  util::LockGuard lifecycle(lifecycle_mutex_);
  if (thread_.joinable()) return true;  // already running
  {
    util::LockGuard lock(mutex_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { run_loop(); });
  return true;
}

void Sampler::stop() {
  // The lifecycle lock (not the lock-free running_ flag) decides who
  // joins: two concurrent stop() calls used to both pass a running_
  // check and double-join (std::terminate). The loser now blocks here
  // until the winner's join completes, then sees thread_ already
  // joined and returns.
  util::LockGuard lifecycle(lifecycle_mutex_);
  if (!thread_.joinable()) return;
  {
    util::LockGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  thread_ = std::thread();
  running_.store(false, std::memory_order_relaxed);
}

void Sampler::run_loop() {
  while (true) {
    sample_once();
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(config_.cadence.count());
    util::UniqueLock lock(mutex_);
    while (!stopping_) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    if (stopping_) break;
  }
  // A final pass so the stored history (and any flight-recorder dump
  // taken right after stop()) covers the tail of the run.
  sample_once();
}

}  // namespace quicsand::obs
