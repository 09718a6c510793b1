// The QUICsand batch analysis engine, sharded by source IP.
//
// Ingest classifies packet batches on a worker pool: each worker owns a
// Classifier and a row of hourly ShardedCounters, merged by summation
// when ingest finishes. Each classify task routes the records it keeps
// by hash(source IP) % N, and finish() lays them out once, grouped by
// shard, every shard on its own worker. Sessionization and DoS detection
// are purely source-local (§5.1), so every shard runs the serial inner
// loops on its own range and the merged output equals build_sessions /
// detect_attacks over the whole stream, whatever the shard count. See
// DESIGN.md "Parallel execution model" for the determinism argument.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "net/packet.hpp"
#include "net/record_batch.hpp"
#include "obs/health.hpp"
#include "util/sharded_counter.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace quicsand::core {

/// Compile-time tripwire for the thread-safety annotations below;
/// defined only in tests/tsa_negative.cpp (see scripts/check_tsa.sh).
/// It MUST fail to compile under -Werror=thread-safety — if deleting a
/// QS_GUARDED_BY/QS_REQUIRES here makes the probe build, CI fails.
struct TsaNegativeProbe;

class ParallelPipeline {
 public:
  /// `shards` is both the worker-thread and the analysis-shard count;
  /// 0 means hardware concurrency.
  ParallelPipeline(PipelineOptions options, std::size_t shards);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Ingest one packet (must arrive in time order). Packets collect in a
  /// current batch that is classified on the pool once full; a packet
  /// larger than a whole batch arena travels in a batch of its own.
  void consume(const net::RawPacket& packet);

  /// Take a recycled (empty) batch from the pool, or a fresh default
  /// RecordBatch on first use. Fill it with packets in time order and
  /// hand it back via consume_batch().
  [[nodiscard]] net::RecordBatch acquire_batch();

  /// Ingest a whole batch: classification of the batch runs as one pool
  /// task, and the batch itself is recycled into the pool afterwards, so
  /// the generate→ingest hot loop performs no steady-state allocation.
  /// Batches (and any interleaved consume() packets) must arrive in
  /// global time order; consume() stragglers are handed over first.
  void consume_batch(net::RecordBatch&& batch);

  /// Flush pending packets, drain the pool and merge per-worker state.
  /// Idempotent; every analysis accessor calls it, after which neither
  /// consume() nor consume_batch() may be called again.
  void finish();

  [[nodiscard]] const ClassifierStats& stats();
  [[nodiscard]] const HourlySeries& hourly();

  /// Sanitized records grouped by shard (util::shard_of of the source),
  /// in arrival order within each shard; at 1 shard, the arrival order.
  [[nodiscard]] std::span<const PacketRecord> records();

  std::vector<Session> request_sessions(util::Duration timeout);
  std::vector<Session> response_sessions(util::Duration timeout);
  std::vector<Session> common_sessions(util::Duration timeout);

  /// Figure 4 sweep over the sanitized QUIC records (both directions).
  std::vector<std::pair<util::Duration, std::uint64_t>>
  session_timeout_sweep(std::span<const util::Duration> timeouts);

  /// Detected attacks at the configured (or the given) thresholds.
  AttackAnalysis analyze_attacks();
  AttackAnalysis analyze_attacks(const DosThresholds& thresholds);

  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }

 private:
  friend struct TsaNegativeProbe;

  /// One classified batch's kept records, one exactly sized part per
  /// shard.
  using ShardParts = std::vector<std::vector<PacketRecord>>;

  /// Frees the record storage, which finish() allocates uninitialized so
  /// each shard first-touches its own range.
  struct OperatorDelete {
    void operator()(PacketRecord* records) const {
      ::operator delete(records);
    }
  };

  /// Classify `batch` as one pool task (after backpressure).
  void submit(net::RecordBatch&& batch);
  /// Submit the consume() batch if it holds packets.
  void flush_current();
  /// Return a default-sized batch to the pool (others are dropped).
  void recycle(net::RecordBatch&& batch);
  /// Block until fewer than 4 * shards_ batches are in flight, then
  /// claim a slot (increments inflight_, publishes the gauge). Caller
  /// holds inflight_mutex_ via `lock`.
  void wait_for_inflight_slot(util::UniqueLock& lock)
      QS_REQUIRES(inflight_mutex_);
  /// Return a claimed slot and wake blocked producers; takes
  /// inflight_mutex_ itself (called from worker jobs).
  void release_inflight_slot() QS_EXCLUDES(inflight_mutex_);
  /// Lay the per-batch parts out once, grouped by shard, each shard on
  /// its own worker.
  void lay_out_records();
  [[nodiscard]] std::span<const PacketRecord> shard(std::size_t s) const;
  /// Sessionize every shard in parallel, then merge.
  std::vector<Session> sessions(util::Duration timeout, RecordFilter filter);

  PipelineOptions options_;
  std::size_t shards_;
  std::size_t hours_;

  // Per-worker ingest state: workers only touch their own slot/row.
  std::vector<std::unique_ptr<Classifier>> worker_classifiers_;
  std::vector<util::ShardedCounter> worker_hourly_;  // one per HourlySlot
  std::vector<ShardParts> worker_staging_;  // routing buffers, reused

  // Ingest: consume() fills current_; the main thread appends an output
  // slot per batch before submitting it, so workers write disjoint,
  // stable deque elements.
  net::RecordBatch current_{0, 0};
  std::deque<ShardParts> batches_;
  util::Mutex inflight_mutex_{util::LockRank::kPipelineInflight,
                              "pipeline_inflight"};
  util::CondVar inflight_cv_;
  std::size_t inflight_ QS_GUARDED_BY(inflight_mutex_) = 0;

  // Recycled RecordBatch pool. Workers take pool_mutex_ and
  // inflight_mutex_ strictly sequentially (never nested), so both are
  // leaf ranks.
  util::Mutex pool_mutex_{util::LockRank::kPipelineBatchPool,
                          "pipeline_batch_pool"};
  std::vector<net::RecordBatch> batch_pool_ QS_GUARDED_BY(pool_mutex_);

  // Merged state, valid once finished_. Shard s owns records_ range
  // [shard_begin_[s], shard_begin_[s + 1]).
  bool finished_ = false;
  ClassifierStats stats_;
  HourlySeries hourly_;
  std::unique_ptr<PacketRecord[], OperatorDelete> records_;
  std::vector<std::size_t> shard_begin_;

  // Observability handles, resolved once at construction; all nullptr
  // when no registry is attached (options_.obs).
  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::Histogram* backpressure_wait_us_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::Histogram* shard_records_hist_ = nullptr;
  obs::Histogram* classify_batch_us_ = nullptr;
  obs::Histogram* sessionize_shard_us_ = nullptr;
  obs::Histogram* analyze_shard_us_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  // Liveness component; heartbeat per dispatched batch, idle once
  // finish() has merged.
  obs::Health::Component* health_ = nullptr;

  // Declared last so jobs referencing the members above are drained
  // before anything else is destroyed.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace quicsand::core
