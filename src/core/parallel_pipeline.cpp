#include "core/parallel_pipeline.hpp"

#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace quicsand::core {

namespace {

std::size_t resolve_shards(std::size_t requested) {
  if (requested > 0) return requested;
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t RecordView::size() const {
  std::size_t n = 0;
  for (const auto part : joined_.base()) n += part.size();
  return n;
}

void publish_classifier_stats(const ClassifierStats& stats,
                              obs::MetricsRegistry& metrics) {
  metrics.gauge("classifier.total", "decodable+undecodable packets seen")
      .set(static_cast<std::int64_t>(stats.total));
  metrics.gauge("classifier.undecodable", "not parseable as IPv4/UDP/TCP/ICMP")
      .set(static_cast<std::int64_t>(stats.undecodable));
  metrics
      .gauge("classifier.quic_port_rejects",
             "UDP port 443 that failed QUIC dissection")
      .set(static_cast<std::int64_t>(stats.quic_port_rejects));
  metrics.gauge("classifier.research", "research-scanner QUIC packets")
      .set(static_cast<std::int64_t>(stats.research));
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    metrics
        .gauge(std::string("classifier.class.") +
               traffic_class_name(static_cast<TrafficClass>(c)))
        .set(static_cast<std::int64_t>(stats.by_class[c]));
  }
}

ParallelPipeline::ParallelPipeline(PipelineOptions options,
                                   std::size_t shards)
    : options_(std::move(options)),
      shards_(resolve_shards(shards)),
      hours_(static_cast<std::size_t>(options_.days) * 24),
      worker_staging_(shards_, ShardParts(shards_ * kGroups)) {
  worker_classifiers_.reserve(shards_);
  for (std::size_t i = 0; i < shards_; ++i) {
    worker_classifiers_.push_back(std::make_unique<Classifier>(
        ClassifierConfig{options_.research_prefixes}));
  }
  worker_hourly_.reserve(kHourlySlotCount);
  for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
    worker_hourly_.emplace_back(shards_, hours_);
  }
  if (auto* metrics = options_.obs.metrics) {
    packets_counter_ = &metrics->counter(
        "pipeline.packets", "packets consumed by the pipeline");
    records_counter_ = &metrics->counter(
        "pipeline.records", "sanitized records kept for analysis");
    batches_counter_ =
        &metrics->counter("parallel.batches", "classify batches dispatched");
    backpressure_wait_us_ = &metrics->histogram(
        "parallel.backpressure_wait_us",
        "time the capture loop blocked on in-flight batch backpressure");
    queue_wait_us_ = &metrics->histogram(
        "parallel.queue_wait_us",
        "time a classify batch waited in the pool queue");
    shard_records_hist_ = &metrics->histogram(
        "parallel.shard_records",
        "records per analysis shard (imbalance indicator)");
    classify_batch_us_ = &metrics->histogram(
        "parallel.classify_batch_us",
        "wall time a worker spent classifying one batch");
    sessionize_shard_us_ = &metrics->histogram(
        "parallel.sessionize_shard_us",
        "wall time one shard spent in sessionization");
    analyze_shard_us_ = &metrics->histogram(
        "parallel.analyze_shard_us",
        "wall time one shard spent in session + attack analysis");
    inflight_gauge_ = &metrics->gauge(
        "parallel.inflight_batches", "classify batches queued or running");
    pending_gauge_ = &metrics->gauge(
        "parallel.pending_packets",
        "packets buffered in the current (undispatched) batch");
    metrics->gauge("parallel.shards", "analysis shards / worker threads")
        .set(static_cast<std::int64_t>(shards_));
  }
  if (auto* health = options_.obs.health) {
    health_ = &health->component("parallel_pipeline");
    health_->set_ready(true);
  }
  pool_ = std::make_unique<util::ThreadPool>(shards_);
}

ParallelPipeline::~ParallelPipeline() {
  if (pool_) pool_->wait_idle();
}

void ParallelPipeline::consume(const net::RawPacket& packet) {
  if (packets_counter_ != nullptr) packets_counter_->add();
  if (!current_.try_append(packet.timestamp, packet.data)) {
    flush_current();
    current_ = acquire_batch();
    if (!current_.try_append(packet.timestamp, packet.data)) {
      // Larger than a whole batch arena: the packet travels alone.
      net::RecordBatch single(1, packet.data.size());
      single.try_append(packet.timestamp, packet.data);
      submit(std::move(single));
    }
  }
  if (pending_gauge_ != nullptr) {
    pending_gauge_->set(static_cast<std::int64_t>(current_.size()));
  }
}

net::RecordBatch ParallelPipeline::acquire_batch() {
  {
    util::LockGuard lock(pool_mutex_);
    if (!batch_pool_.empty()) {
      auto batch = std::move(batch_pool_.back());
      batch_pool_.pop_back();
      return batch;
    }
  }
  return net::RecordBatch();
}

void ParallelPipeline::recycle(net::RecordBatch&& batch) {
  // Only default batches return to the pool, so acquire_batch() always
  // hands out one.
  if (batch.capacity() != net::RecordBatch::kDefaultCapacity) return;
  batch.clear();
  util::LockGuard lock(pool_mutex_);
  batch_pool_.push_back(std::move(batch));
}

void ParallelPipeline::wait_for_inflight_slot(util::UniqueLock& lock) {
  // Backpressure: bound the batches in flight so a fast capture or
  // generation loop cannot buffer the whole trace ahead of the workers.
  while (inflight_ >= 4 * shards_) inflight_cv_.wait(lock);
  ++inflight_;
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
}

void ParallelPipeline::release_inflight_slot() {
  util::LockGuard lock(inflight_mutex_);
  --inflight_;
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
  inflight_cv_.notify_all();
}

void ParallelPipeline::consume_batch(net::RecordBatch&& batch) {
  if (batch.empty()) {
    recycle(std::move(batch));
    return;
  }
  if (packets_counter_ != nullptr) packets_counter_->add(batch.size());
  // consume() stragglers go first, so each shard keeps arrival order.
  flush_current();
  submit(std::move(batch));
}

void ParallelPipeline::flush_current() {
  if (current_.empty()) return;
  submit(std::exchange(current_, net::RecordBatch(0, 0)));
  if (pending_gauge_ != nullptr) pending_gauge_->set(0);
}

void ParallelPipeline::submit(net::RecordBatch&& batch) {
  {
    const obs::ScopedLatency wait(backpressure_wait_us_);
    util::UniqueLock lock(inflight_mutex_);
    wait_for_inflight_slot(lock);
  }
  if (batches_counter_ != nullptr) batches_counter_->add();
  if (health_ != nullptr) health_->heartbeat();
  auto* out = &batches_.emplace_back(shards_ * kGroups);
  auto shared = std::make_shared<net::RecordBatch>(std::move(batch));
  const auto submit_us = queue_wait_us_ != nullptr ? obs::steady_us() : 0;
  pool_->submit([this, out, shared, submit_us](std::size_t worker) {
    if (queue_wait_us_ != nullptr) {
      queue_wait_us_->record(obs::steady_us() - submit_us);
    }
    {
      const obs::ScopedLatency latency(classify_batch_us_);
      obs::Span span(options_.obs.tracer, "parallel.classify_batch");
      auto& classifier = *worker_classifiers_[worker];
      auto& staged = worker_staging_[worker];
      for (std::size_t i = 0; i < shared->size(); ++i) {
        const auto view = shared->view(i);
        const auto record = classifier.classify(view.timestamp, view.data);
        if (!record) continue;
        bin_hourly(*record, options_.window_start, hours_,
                   [this, worker](HourlySlot slot, std::size_t hour) {
                     worker_hourly_[static_cast<std::size_t>(slot)].add(
                         worker, hour);
                   });
        if (!keep_for_analysis(*record)) continue;
        const auto shard = util::shard_of(record->src.value(), shards_);
        staged[shard * kGroups +
               (record->is_quic() ? kQuicGroup : kCommonGroup)]
            .push_back(*record);
      }
      // Each part leaves at its exact size; the staging keeps capacity.
      std::size_t kept = 0;
      for (std::size_t k = 0; k < staged.size(); ++k) {
        (*out)[k].assign(staged[k].begin(), staged[k].end());
        kept += staged[k].size();
        staged[k].clear();
      }
      if (records_counter_ != nullptr) records_counter_->add(kept);
    }
    recycle(std::move(*shared));
    release_inflight_slot();
  });
}

void ParallelPipeline::finish() {
  if (finished_) return;
  flush_current();
  {
    obs::Span span(options_.obs.tracer, "parallel.ingest_drain");
    pool_->wait_idle();
  }

  obs::Span span(options_.obs.tracer, "parallel.merge_ingest");
  for (const auto& classifier : worker_classifiers_) {
    stats_.merge_from(classifier->stats());
  }
  for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
    hourly_.of(static_cast<HourlySlot>(slot)) = worker_hourly_[slot].merged();
  }
  // Batches were submitted in arrival order, so listing each group's
  // parts batch by batch keeps arrival order within the group.
  group_begin_.assign(shards_ * kGroups + 1, 0);
  for (std::size_t s = 0; s < shards_; ++s) {
    std::size_t records = 0;
    for (std::size_t k = s * kGroups; k < (s + 1) * kGroups; ++k) {
      group_begin_[k] = parts_.size();
      for (const auto& parts : batches_) {
        if (parts[k].empty()) continue;
        parts_.emplace_back(parts[k]);
        records += parts[k].size();
      }
    }
    if (shard_records_hist_ != nullptr) shard_records_hist_->record(records);
  }
  group_begin_.back() = parts_.size();
  finished_ = true;
  if (auto* metrics = options_.obs.metrics) {
    publish_classifier_stats(stats_, *metrics);
  }
  if (health_ != nullptr) {
    health_->heartbeat();
    health_->set_idle(true);  // ingest drained and merged
  }
}

const ClassifierStats& ParallelPipeline::stats() {
  finish();
  return stats_;
}

const HourlySeries& ParallelPipeline::hourly() {
  finish();
  return hourly_;
}

RecordView ParallelPipeline::records() {
  finish();
  return RecordView(parts_);
}

RecordParts ParallelPipeline::group(std::size_t s, RecordFilter filter) const {
  const auto k = s * kGroups + (filter == common_backscatter_filter()
                                    ? kCommonGroup
                                    : kQuicGroup);
  return RecordParts(parts_).subspan(group_begin_[k],
                                     group_begin_[k + 1] - group_begin_[k]);
}

std::vector<Session> ParallelPipeline::sessions(util::Duration timeout,
                                                RecordFilter filter) {
  finish();
  std::vector<std::vector<Session>> parts(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    obs::Span span(options_.obs.tracer,
                   "parallel.sessionize.shard" + std::to_string(s));
    const obs::ScopedLatency latency(sessionize_shard_us_);
    parts[s] = build_sessions(group(s, filter), timeout, filter);
  });
  obs::Span span(options_.obs.tracer, "parallel.merge_sessions");
  return merge_sessions(std::move(parts)).sessions;
}

std::vector<Session> ParallelPipeline::request_sessions(
    util::Duration timeout) {
  return sessions(timeout, quic_request_filter());
}

std::vector<Session> ParallelPipeline::response_sessions(
    util::Duration timeout) {
  return sessions(timeout, quic_response_filter());
}

std::vector<Session> ParallelPipeline::common_sessions(
    util::Duration timeout) {
  return sessions(timeout, common_backscatter_filter());
}

std::vector<std::pair<util::Duration, std::uint64_t>>
ParallelPipeline::session_timeout_sweep(
    std::span<const util::Duration> timeouts) {
  finish();
  std::vector<GapProfile> profiles(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    obs::Span span(options_.obs.tracer,
                   "parallel.gap_profile.shard" + std::to_string(s));
    profiles[s] = collect_gap_profile(group(s, sanitized_quic_filter()),
                                      sanitized_quic_filter());
  });
  obs::Span span(options_.obs.tracer, "parallel.merge_gap_profiles");
  GapProfile merged;
  for (auto& profile : profiles) {
    merge_gap_profiles(merged, std::move(profile));
  }
  return sweep_counts(std::move(merged), timeouts);
}

AttackAnalysis ParallelPipeline::analyze_attacks() {
  return analyze_attacks(options_.thresholds);
}

AttackAnalysis ParallelPipeline::analyze_attacks(
    const DosThresholds& thresholds) {
  finish();
  const auto timeout = options_.session_timeout;
  std::vector<std::vector<Session>> response_parts(shards_);
  std::vector<std::vector<Session>> common_parts(shards_);
  std::vector<std::vector<DetectedAttack>> quic_parts(shards_);
  std::vector<std::vector<DetectedAttack>> common_attack_parts(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    obs::Span span(options_.obs.tracer,
                   "parallel.analyze.shard" + std::to_string(s));
    const obs::ScopedLatency latency(analyze_shard_us_);
    response_parts[s] = build_sessions(group(s, quic_response_filter()),
                                       timeout, quic_response_filter());
    common_parts[s] = build_sessions(group(s, common_backscatter_filter()),
                                     timeout, common_backscatter_filter());
    quic_parts[s] = detect_attacks(response_parts[s], thresholds);
    common_attack_parts[s] = detect_attacks(common_parts[s], thresholds);
  });

  auto* metrics = options_.obs.metrics;
  AttackAnalysis analysis;
  {
    obs::Span span(options_.obs.tracer, "parallel.merge_analysis");
    const obs::ScopedLatency latency(
        metrics != nullptr
            ? &metrics->histogram("parallel.merge_analysis_us",
                                  "wall time of the final session/attack merge")
            : nullptr);
    auto response_merge = merge_sessions(std::move(response_parts));
    analysis.quic_attacks =
        merge_attacks(std::move(quic_parts), response_merge.global_index);
    analysis.response_sessions = std::move(response_merge.sessions);
    auto common_merge = merge_sessions(std::move(common_parts));
    analysis.common_attacks = merge_attacks(std::move(common_attack_parts),
                                            common_merge.global_index);
    analysis.common_sessions = std::move(common_merge.sessions);
  }
  if (metrics != nullptr) {
    metrics->gauge("pipeline.quic_attacks")
        .set(static_cast<std::int64_t>(analysis.quic_attacks.size()));
    metrics->gauge("pipeline.common_attacks")
        .set(static_cast<std::int64_t>(analysis.common_attacks.size()));
  }
  return analysis;
}

}  // namespace quicsand::core
