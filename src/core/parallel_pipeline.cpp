#include "core/parallel_pipeline.hpp"

#include <memory>
#include <stdexcept>
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

ParallelPipeline::ShardState::ShardState(util::Duration timeout)
    : tables{SessionTable(timeout, quic_request_filter()),
             SessionTable(timeout, quic_response_filter()),
             SessionTable(timeout, common_backscatter_filter())} {}

ParallelPipeline::ParallelPipeline(PipelineOptions options,
                                   std::size_t shards)
    : options_(std::move(options)),
      shards_(resolve_shards(shards)),
      hours_(static_cast<std::size_t>(options_.days) * 24),
      slot_records_(4 * shards_),
      shard_state_(shards_, ShardState(options_.session_timeout)),
      slots_(4 * shards_),
      sequencers_(shards_) {
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
    batch_counter_ =
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
    absorb_batch_us_ = &metrics->histogram(
        "parallel.absorb_batch_us",
        "wall time one shard spent absorbing one batch's records");
    close_shard_us_ = &metrics->histogram(
        "parallel.close_shard_us",
        "wall time one shard spent closing and sorting its sessions");
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

void ParallelPipeline::consume(net::PacketView packet) {
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

std::uint64_t ParallelPipeline::wait_for_inflight_slot(
    util::UniqueLock& lock) {
  // Backpressure: bound the batches in flight so a fast capture or
  // generation loop cannot buffer the whole trace ahead of the workers.
  // With fewer than slots_.size() in flight, the batch that last held
  // this slot has been absorbed by every shard (DESIGN.md §6).
  while (inflight_ >= slots_.size()) inflight_cv_.wait(lock);
  ++inflight_;
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
  const auto seq = submitted_++;
  slots_[seq % slots_.size()] = {seq, 0};
  return seq;
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
  std::uint64_t seq = 0;
  {
    const obs::ScopedLatency wait(backpressure_wait_us_);
    util::UniqueLock lock(inflight_mutex_);
    seq = wait_for_inflight_slot(lock);
  }
  if (batch_counter_ != nullptr) batch_counter_->add();
  if (health_ != nullptr) health_->heartbeat();
  auto shared = std::make_shared<net::RecordBatch>(std::move(batch));
  const auto submit_us = queue_wait_us_ != nullptr ? obs::steady_us() : 0;
  pool_->submit([this, seq, shared, submit_us](std::size_t worker) {
    if (queue_wait_us_ != nullptr) {
      queue_wait_us_->record(obs::steady_us() - submit_us);
    }
    {
      const obs::ScopedLatency latency(classify_batch_us_);
      obs::Span span(options_.obs.tracer, "parallel.classify_batch");
      auto& classifier = *worker_classifiers_[worker];
      auto& kept = slot_records_[seq % slot_records_.size()];
      kept.records.clear();
      kept.shards.clear();
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
        kept.records.push_back(*record);
        kept.shards.push_back(static_cast<std::uint32_t>(
            util::shard_of(record->src.value(), shards_)));
      }
      if (records_counter_ != nullptr) {
        records_counter_->add(kept.records.size());
      }
    }
    recycle(std::move(*shared));
    {
      util::LockGuard lock(inflight_mutex_);
      slots_[seq % slots_.size()].unabsorbed = shards_;
    }
    // Start at the worker's own shard, so workers rarely queue on one.
    for (std::size_t k = 0; k < shards_; ++k) {
      absorb_in_order((worker + k) % shards_);
    }
  });
}

void ParallelPipeline::absorb_in_order(std::size_t s) {
  util::UniqueLock lock(inflight_mutex_);
  if (sequencers_[s].draining) return;
  sequencers_[s].draining = true;
  for (;;) {
    const auto seq = sequencers_[s].next;
    const auto k = seq % slots_.size();
    if (slots_[k].seq != seq || slots_[k].unabsorbed == 0) break;
    ++sequencers_[s].next;
    lock.unlock();
    {
      const obs::ScopedLatency latency(absorb_batch_us_);
      obs::Span span(options_.obs.tracer, "parallel.absorb");
      auto& shard = shard_state_[s];
      auto& [requests, responses, common] = shard.tables;
      const auto& kept = slot_records_[k];
      for (std::size_t i = 0; i < kept.records.size(); ++i) {
        if (kept.shards[i] != s) continue;
        const auto& record = kept.records[i];
        requests.absorb(record);
        if (OpenSession* open = responses.absorb(record)) {
          absorb_distinct(open->session, record);
        }
        common.absorb(record);
        shard.gaps.absorb(record);
        ++shard.records;
      }
    }
    lock.lock();
    if (--slots_[k].unabsorbed == 0) {
      --inflight_;
      if (inflight_gauge_ != nullptr) {
        inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
      }
      inflight_cv_.notify_all();
    }
  }
  sequencers_[s].draining = false;
}

void ParallelPipeline::finish() {
  if (finished_) return;
  flush_current();
  {
    obs::Span span(options_.obs.tracer, "parallel.ingest_drain");
    pool_->wait_idle();
  }

  {
    obs::Span span(options_.obs.tracer, "parallel.merge_ingest");
    for (const auto& classifier : worker_classifiers_) {
      stats_.merge_from(classifier->stats());
    }
    for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
      hourly_.of(static_cast<HourlySlot>(slot)) =
          worker_hourly_[slot].merged();
    }
  }
  std::array<std::vector<std::vector<Session>>, kSessionGroups> closed;
  for (auto& group : closed) group.resize(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    obs::Span span(options_.obs.tracer,
                   "parallel.close_sessions.shard" + std::to_string(s));
    const obs::ScopedLatency latency(close_shard_us_);
    auto& shard = shard_state_[s];
    for (std::size_t g = 0; g < kSessionGroups; ++g) {
      closed[g][s] = shard.tables[g].close_all();
    }
    shard.profile = shard.gaps.take();
  });
  {
    obs::Span span(options_.obs.tracer, "parallel.merge_sessions");
    for (std::size_t g = 0; g < kSessionGroups; ++g) {
      sessions_[g] = merge_sessions(std::move(closed[g])).sessions;
    }
  }
  for (const auto& shard : shard_state_) {
    for (const auto& table : shard.tables) {
      late_records_ += table.late_records();
    }
    if (shard_records_hist_ != nullptr) {
      shard_records_hist_->record(shard.records);
    }
  }
  finished_ = true;
  if (auto* metrics = options_.obs.metrics) {
    publish_classifier_stats(stats_, *metrics);
    metrics
        ->counter("pipeline.late_records",
                  "records older than their session's start")
        .add(late_records_);
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

std::vector<Session> ParallelPipeline::sessions(util::Duration timeout,
                                                RecordFilter filter) {
  if (timeout != options_.session_timeout) {
    throw std::invalid_argument(
        "ParallelPipeline: sessions exist at options().session_timeout "
        "only");
  }
  finish();
  return sessions_[static_cast<std::size_t>(filter)];
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
  GapProfile merged;
  for (const auto& shard : shard_state_) {
    merge_gap_profiles(merged, shard.profile);
  }
  return sweep_counts(std::move(merged), timeouts);
}

AttackAnalysis ParallelPipeline::analyze_attacks() {
  return analyze_attacks(options_.thresholds);
}

AttackAnalysis ParallelPipeline::analyze_attacks(
    const DosThresholds& thresholds) {
  AttackAnalysis analysis;
  analysis.response_sessions = response_sessions(options_.session_timeout);
  analysis.common_sessions = common_sessions(options_.session_timeout);
  analysis.quic_attacks =
      detect_attacks(analysis.response_sessions, thresholds);
  analysis.common_attacks =
      detect_attacks(analysis.common_sessions, thresholds);
  if (auto* metrics = options_.obs.metrics) {
    metrics->gauge("pipeline.quic_attacks")
        .set(static_cast<std::int64_t>(analysis.quic_attacks.size()));
    metrics->gauge("pipeline.common_attacks")
        .set(static_cast<std::int64_t>(analysis.common_attacks.size()));
  }
  return analysis;
}

}  // namespace quicsand::core
