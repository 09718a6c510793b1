// The QUICsand batch analysis engine, sharded by source IP.
//
// Ingest classifies packet batches on a worker pool: each worker owns a
// Classifier and a row of hourly ShardedCounters, merged by summation
// when ingest finishes. Each classify task routes the records it keeps
// by hash(source IP) % N into one exactly sized part per shard and
// group (QUIC, or TCP/ICMP), and the records stay in those parts: no
// copy follows. Sessionization and DoS detection are purely source-local
// (§5.1), so every shard runs the serial inner loops over its own parts
// of one group, and the merged output equals build_sessions /
// detect_attacks over the whole stream, whatever the shard count. See
// DESIGN.md "Parallel execution model" and "Where records go" for the
// determinism argument.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <ranges>
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

/// Read-only view of records held in non-empty parts, walked part by
/// part (ParallelPipeline::records()).
class RecordView : public std::ranges::view_interface<RecordView> {
 public:
  explicit RecordView(RecordParts parts) : joined_(parts) {}
  [[nodiscard]] auto begin() const { return joined_.begin(); }
  [[nodiscard]] auto end() const { return joined_.end(); }
  [[nodiscard]] std::size_t size() const;

 private:
  std::ranges::join_view<RecordParts> joined_;
};

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

  /// Sanitized records where classification left them: by shard
  /// (util::shard_of of the source), then group (QUIC requests and
  /// responses first, then TCP/ICMP), then arrival order. The view reads
  /// the pipeline's parts and lives no longer than the pipeline.
  [[nodiscard]] RecordView records();

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

  /// Record groups per shard: every RecordFilter reads exactly one.
  static constexpr std::size_t kQuicGroup = 0;
  static constexpr std::size_t kCommonGroup = 1;
  static constexpr std::size_t kGroups = 2;

  /// One classified batch's kept records, one exactly sized part per
  /// shard and group, at index shard * kGroups + group.
  using ShardParts = std::vector<std::vector<PacketRecord>>;

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
  /// Shard s's parts of the one group `filter` reads, in arrival order.
  [[nodiscard]] RecordParts group(std::size_t s, RecordFilter filter) const;
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
  // stable deque elements. The slots keep arrival order and hold the
  // kept records until the pipeline is destroyed.
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

  // Merged state, valid once finished_. parts_ lists the non-empty
  // parts of batches_ by shard, group, then arrival; group k = shard *
  // kGroups + g owns parts_[group_begin_[k], group_begin_[k + 1]).
  bool finished_ = false;
  ClassifierStats stats_;
  HourlySeries hourly_;
  std::vector<std::span<const PacketRecord>> parts_;
  std::vector<std::size_t> group_begin_;

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
