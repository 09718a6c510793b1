// The QUICsand batch analysis engine, sharded by source IP.
//
// Ingest classifies packet batches on a worker pool; each worker owns a
// Classifier and a row of hourly counters, summed by finish(). Each
// shard folds its sources' kept records into its SessionTables and gap
// collector in batch submission order while ingest runs, so no record
// outlives its batch. Sessionization is source-local (§5.1), so the
// merged output equals build_sessions / detect_attacks over the whole
// stream at any shard count (DESIGN.md §6, "Where sessions are built").
#pragma once

#include <array>
#include <cstdint>
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

/// How many records ingest kept for analysis (ParallelPipeline::records()).
struct RecordCount {
  std::uint64_t kept = 0;
  [[nodiscard]] std::uint64_t size() const { return kept; }
  [[nodiscard]] bool empty() const { return kept == 0; }
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
  /// larger than a whole batch arena travels in a batch of its own. The
  /// bytes are copied into the batch, so the view need only outlive the
  /// call (a capture reader's next() view, or a RawPacket).
  void consume(net::PacketView packet);

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

  /// The number of records kept for analysis (stats().kept). The
  /// records themselves are gone once their batch is absorbed.
  [[nodiscard]] RecordCount records() { return {stats().kept}; }

  /// Records older than their session's start, over the three session
  /// groups (also exported as `pipeline.late_records`).
  [[nodiscard]] std::uint64_t late_records() {
    finish();
    return late_records_;
  }

  /// Sessions of one group at the configured timeout. Each shard built
  /// them during ingest at options().session_timeout, so any other
  /// `timeout` throws std::invalid_argument.
  std::vector<Session> request_sessions(util::Duration timeout);
  std::vector<Session> response_sessions(util::Duration timeout);
  std::vector<Session> common_sessions(util::Duration timeout);

  /// Figure 4 sweep over the sanitized QUIC records (both directions),
  /// read from the gap profiles the shards collected.
  std::vector<std::pair<util::Duration, std::uint64_t>>
  session_timeout_sweep(std::span<const util::Duration> timeouts);

  /// Detected attacks at the configured (or the given) thresholds: one
  /// detect_attacks pass over the sessions finish() closed and merged.
  AttackAnalysis analyze_attacks();
  AttackAnalysis analyze_attacks(const DosThresholds& thresholds);

  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }

 private:
  friend struct TsaNegativeProbe;

  /// The session groups, indexed by their RecordFilter value.
  static constexpr std::size_t kSessionGroups = 3;

  /// One batch's kept records in arrival order, each with its shard.
  /// Written by the classify task, then read by every shard's sequencer.
  struct SlotRecords {
    std::vector<PacketRecord> records;
    std::vector<std::uint32_t> shards;
  };

  /// One shard's analysis state. During ingest only the worker holding
  /// the shard's sequencer touches it; finish() closes it.
  struct ShardState {
    explicit ShardState(util::Duration timeout);
    std::array<SessionTable, kSessionGroups> tables;
    GapCollector gaps{sanitized_quic_filter()};
    GapProfile profile;  ///< what `gaps` collected, taken by finish()
    std::uint64_t records = 0;
  };

  /// Where shard s stands in the batch sequence: the sequence number of
  /// the batch it absorbs next, and whether a worker is absorbing now.
  struct Sequencer {
    std::uint64_t next = 0;
    bool draining = false;
  };

  /// The batch an in-flight slot holds, and how many shards have yet to
  /// absorb it (0 until it is classified).
  struct Slot {
    std::uint64_t seq = 0;
    std::size_t unabsorbed = 0;
  };

  /// Classify `batch` as one pool task (after backpressure), then let
  /// every shard absorb what is ready.
  void submit(net::RecordBatch&& batch);
  /// Submit the consume() batch if it holds packets.
  void flush_current();
  /// Return a default-sized batch to the pool (others are dropped).
  void recycle(net::RecordBatch&& batch);
  /// Block until fewer than slots_.size() batches are in flight, then
  /// claim the next sequence number's slot (increments inflight_) and
  /// return that number. Caller holds inflight_mutex_ via `lock`.
  std::uint64_t wait_for_inflight_slot(util::UniqueLock& lock)
      QS_REQUIRES(inflight_mutex_);
  /// Unless a worker already absorbs for shard `s`, absorb its parts of
  /// every classified batch in sequence order, releasing each batch's
  /// slot once every shard has absorbed it. Takes inflight_mutex_
  /// itself, and drops it while absorbing.
  void absorb_in_order(std::size_t s) QS_EXCLUDES(inflight_mutex_);
  /// One group's sessions; `timeout` must be the configured one.
  std::vector<Session> sessions(util::Duration timeout, RecordFilter filter);

  PipelineOptions options_;
  std::size_t shards_;
  std::size_t hours_;

  // Per-worker ingest state: workers only touch their own slot/row.
  std::vector<std::unique_ptr<Classifier>> worker_classifiers_;
  std::vector<util::ShardedCounter> worker_hourly_;  // one per HourlySlot

  // Ingest: consume() fills current_. A submitted batch takes slot
  // seq % slots_.size(): its classify task writes the kept records into
  // that slot's slot_records_, and each shard's sequencer absorbs its
  // own records of it in sequence order. A slot is released only when
  // every shard has absorbed it, so at most slots_.size() batches of
  // records wait.
  net::RecordBatch current_{0, 0};
  std::vector<SlotRecords> slot_records_;
  std::vector<ShardState> shard_state_;
  util::Mutex inflight_mutex_{util::LockRank::kPipelineInflight,
                              "pipeline_inflight"};
  util::CondVar inflight_cv_;
  std::size_t inflight_ QS_GUARDED_BY(inflight_mutex_) = 0;
  std::uint64_t submitted_ QS_GUARDED_BY(inflight_mutex_) = 0;
  std::vector<Slot> slots_ QS_GUARDED_BY(inflight_mutex_);
  std::vector<Sequencer> sequencers_ QS_GUARDED_BY(inflight_mutex_);

  // Recycled RecordBatch pool. Workers take pool_mutex_ and
  // inflight_mutex_ strictly sequentially (never nested), so both are
  // leaf ranks.
  util::Mutex pool_mutex_{util::LockRank::kPipelineBatchPool,
                          "pipeline_batch_pool"};
  std::vector<net::RecordBatch> batch_pool_ QS_GUARDED_BY(pool_mutex_);

  // Merged state, valid once finished_: each group's sessions (indexed
  // by RecordFilter value) in serial order.
  bool finished_ = false;
  ClassifierStats stats_;
  HourlySeries hourly_;
  std::array<std::vector<Session>, kSessionGroups> sessions_;
  std::uint64_t late_records_ = 0;

  // Observability handles, resolved once at construction; all nullptr
  // when no registry is attached (options_.obs).
  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* batch_counter_ = nullptr;
  obs::Histogram* backpressure_wait_us_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::Histogram* shard_records_hist_ = nullptr;
  obs::Histogram* classify_batch_us_ = nullptr;
  obs::Histogram* absorb_batch_us_ = nullptr;
  obs::Histogram* close_shard_us_ = nullptr;
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
