#include "net/live/receiver.hpp"

#include <algorithm>
#include <chrono>

#include "net/live/frame.hpp"
#include "obs/metrics.hpp"
#include "util/sharded_counter.hpp"

// Arrival timestamps come from frame.hpp's wall_clock_us()
// (CLOCK_REALTIME): live capture is the one place the pipeline
// legitimately reads the wall clock — everything downstream still only
// sees util::Timestamp, and send/arrival stamps stay in one clock
// domain.

namespace quicsand::net::live {

namespace {

/// Receiver poll timeout: the latency of noticing stop().
constexpr util::Duration kPollTimeout = 50 * util::kMillisecond;

/// Per-stage latency histograms record every Nth received datagram
/// (deterministic 1-in-N). Sampled packets cost two extra clock reads on
/// the worker thread; the timing stamps themselves ride along on every
/// packet, so all four stages are recorded at pop, for the same
/// datagrams, and a sampled datagram the ring evicts records none.
constexpr std::uint64_t kLatencySampleEvery = 64;

}  // namespace

LiveReceiver::LiveReceiver(LiveReceiverConfig config)
    : config_(std::move(config)) {
  if (config_.shards == 0) config_.shards = 1;
  if (auto* metrics = config_.obs.metrics) {
    received_counter_ =
        &metrics->counter("live.received_packets",
                          "datagrams read from the live UDP socket");
    bytes_counter_ = &metrics->counter("live.received_bytes",
                                       "payload bytes read from the socket");
    delivered_counter_ =
        &metrics->counter("live.delivered_packets",
                          "datagrams handed to a shard sink");
    dropped_counter_ = &metrics->counter(
        "live.dropped_packets",
        "datagrams lost before analysis (ring evictions + kernel overflow)");
    dropped_ring_counter_ = &metrics->counter(
        "live.dropped_ring", "drop-oldest ring evictions");
    dropped_kernel_counter_ = &metrics->counter(
        "live.dropped_kernel", "socket-buffer overflow (SO_RXQ_OVFL)");
    undecodable_counter_ = &metrics->counter(
        "live.undecodable", "payloads without a plausible IPv4 header");
    batch_hist_ = &metrics->histogram("live.batch_packets",
                                      "datagrams per recvmmsg batch");
    ring_depth_gauge_ = &metrics->gauge(
        "live.ring_depth", "occupancy of the fullest shard ring");
    wire_latency_ = &metrics->histogram(
        "live.latency.wire_us",
        "QSL2 send stamp -> socket arrival, sampled (us; loopback clock)");
    ring_latency_ = &metrics->histogram(
        "live.latency.ring_us",
        "socket arrival -> shard worker pop, sampled (us)");
    process_latency_ = &metrics->histogram(
        "live.latency.process_us",
        "shard worker pop -> sink return, sampled (us)");
    e2e_latency_ = &metrics->histogram(
        "live.latency.e2e_us",
        "wire send (or arrival) -> sink return, sampled (us)");
    shard_lag_gauges_.reserve(config_.shards);
    shard_high_water_gauges_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      const auto prefix = "live.shard" + std::to_string(i);
      shard_lag_gauges_.push_back(&metrics->gauge(
          prefix + ".lag_us",
          "event-time skew: newest enqueued minus newest processed (us)"));
      shard_high_water_gauges_.push_back(&metrics->gauge(
          prefix + ".ring_high_water",
          "largest ring occupancy observed on this shard"));
    }
  }
  if (auto* health = config_.obs.health) {
    receiver_health_ = &health->component("live_receiver");
    workers_health_ = &health->component("live_workers");
  }
}

LiveReceiver::~LiveReceiver() { stop(); }

bool LiveReceiver::start(Sink sink) {
  if (running_.load(std::memory_order_relaxed)) return true;
  sink_ = std::move(sink);
  if (!socket_.bind(config_.host, config_.port, config_.rcvbuf_bytes)) {
    error_ = socket_.last_error();
    return false;
  }
  stopping_.store(false, std::memory_order_relaxed);
  rings_.clear();
  rings_.reserve(config_.shards);
  watermarks_.clear();
  watermarks_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    rings_.push_back(
        std::make_unique<Ring<TimedPacket>>(config_.ring_capacity));
    watermarks_.push_back(std::make_unique<ShardWatermark>());
  }
  running_.store(true, std::memory_order_relaxed);
  if (receiver_health_ != nullptr) receiver_health_->set_ready(true);
  if (workers_health_ != nullptr) workers_health_->set_ready(true);
  receive_thread_ = std::thread([this] { receive_loop(); });
  workers_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  return true;
}

void LiveReceiver::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  stopping_.store(true, std::memory_order_relaxed);
  socket_.shutdown_receive();
  if (receive_thread_.joinable()) receive_thread_.join();
  // receive_loop closed every ring on exit; workers drain and leave.
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  socket_.close();
  if (receiver_health_ != nullptr) receiver_health_->set_idle(true);
  if (workers_health_ != nullptr) workers_health_->set_idle(true);
  running_.store(false, std::memory_order_relaxed);
}

void LiveReceiver::receive_loop() {
  ReceiveBatch batch;
  std::uint64_t seen = 0;  ///< datagrams parsed, for 1-in-N sampling
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::uint64_t kernel_delta = 0;
    const int n =
        socket_.receive_batch(&batch, kPollTimeout, &kernel_delta);
    if (kernel_delta > 0) {
      dropped_kernel_.fetch_add(kernel_delta, std::memory_order_relaxed);
      if (dropped_kernel_counter_ != nullptr) {
        dropped_kernel_counter_->add(kernel_delta);
      }
      if (dropped_counter_ != nullptr) dropped_counter_->add(kernel_delta);
    }
    if (receiver_health_ != nullptr) receiver_health_->heartbeat();
    if (n < 0) break;      // fatal socket error; stop() still joins cleanly
    if (n == 0) continue;  // timeout or wake
    if (batch_hist_ != nullptr) {
      batch_hist_->record(static_cast<std::uint64_t>(n));
    }
    // One wall-clock read stamps the whole recvmmsg batch: the spread
    // within a batch is microseconds, far below queueing latency.
    const std::int64_t recv_wall = wall_clock_us();
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < batch.count; ++i) {
      const auto payload = batch.payload(i);
      bytes += payload.size();
      const LiveFrame frame = parse_live_frame(payload);
      const util::Timestamp timestamp =
          frame.encapsulated ? frame.timestamp : util::Timestamp{recv_wall};
      std::size_t shard = 0;
      if (const auto src = quick_ipv4_source(frame.datagram)) {
        shard = util::shard_of(*src, config_.shards);
      } else {
        undecodable_.fetch_add(1, std::memory_order_relaxed);
        if (undecodable_counter_ != nullptr) undecodable_counter_->add();
      }
      received_.fetch_add(1, std::memory_order_relaxed);
      TimedPacket timed{
          net::RawPacket(timestamp,
                         {frame.datagram.begin(), frame.datagram.end()}),
          DatagramTiming{frame.send_wall_us, recv_wall,
                         seen++ % kLatencySampleEvery == 0}};
      watermarks_[shard]->enqueued_event_us.store(timestamp.count(),
                                                 std::memory_order_relaxed);
      const auto evicted =
          rings_[shard]->push_drop_oldest(std::move(timed));
      if (evicted > 0) {
        dropped_ring_.fetch_add(evicted, std::memory_order_relaxed);
        if (dropped_ring_counter_ != nullptr) {
          dropped_ring_counter_->add(evicted);
        }
        if (dropped_counter_ != nullptr) dropped_counter_->add(evicted);
      }
    }
    if (received_counter_ != nullptr) received_counter_->add(batch.count);
    if (bytes_counter_ != nullptr) bytes_counter_->add(bytes);
    if (ring_depth_gauge_ != nullptr) {
      std::size_t depth = 0;
      for (std::size_t s = 0; s < rings_.size(); ++s) {
        const std::size_t size = rings_[s]->size();
        depth = std::max(depth, size);
        auto& mark = *watermarks_[s];
        if (size > mark.ring_high_water.load(std::memory_order_relaxed)) {
          mark.ring_high_water.store(size, std::memory_order_relaxed);
        }
        if (s < shard_high_water_gauges_.size()) {
          shard_high_water_gauges_[s]->set(static_cast<std::int64_t>(
              mark.ring_high_water.load(std::memory_order_relaxed)));
        }
        if (s < shard_lag_gauges_.size()) {
          const std::int64_t lag =
              mark.enqueued_event_us.load(std::memory_order_relaxed) -
              mark.processed_event_us.load(std::memory_order_relaxed);
          shard_lag_gauges_[s]->set(std::max<std::int64_t>(lag, 0));
        }
      }
      ring_depth_gauge_->set(static_cast<std::int64_t>(depth));
    }
  }
  for (auto& ring : rings_) ring->close();
}

void LiveReceiver::worker_loop(std::size_t shard) {
  auto& ring = *rings_[shard];
  auto& mark = *watermarks_[shard];
  std::uint64_t handled = 0;
  bool draining = false;
  for (;;) {
    if (auto timed = ring.try_pop()) {
      delivered_.fetch_add(1, std::memory_order_relaxed);
      if (delivered_counter_ != nullptr) delivered_counter_->add();
      if (timed->timing.sampled && ring_latency_ != nullptr) {
        // Sampled path: two extra clock reads bracket the sink call. All
        // four stages are differences of the same stamps, clamped to be
        // non-decreasing against clock steps, so wire + ring + process
        // == e2e for every sampled datagram.
        const auto& timing = timed->timing;
        const bool stamped = timing.send_wall_us >= 0;
        const std::int64_t origin =
            stamped ? timing.send_wall_us : timing.recv_wall_us;
        const std::int64_t arrived = std::max(timing.recv_wall_us, origin);
        const std::int64_t popped = std::max(wall_clock_us(), arrived);
        if (sink_) sink_(shard, timed->packet, timing);
        const std::int64_t done = std::max(wall_clock_us(), popped);
        if (stamped) {
          wire_latency_->record(static_cast<std::uint64_t>(arrived - origin));
        }
        ring_latency_->record(static_cast<std::uint64_t>(popped - arrived));
        process_latency_->record(static_cast<std::uint64_t>(done - popped));
        e2e_latency_->record(static_cast<std::uint64_t>(done - origin));
      } else if (sink_) {
        sink_(shard, timed->packet, timed->timing);
      }
      mark.processed_event_us.store(timed->packet.timestamp.count(),
                                    std::memory_order_relaxed);
      if (workers_health_ != nullptr && (++handled & 0xFFF) == 0) {
        workers_health_->heartbeat();
      }
      continue;
    }
    // A miss then break on closed() would strand packets published
    // between the miss and the close. close() is ordered after every
    // push, so one more drain pass after observing it sees them all.
    if (draining) break;
    if (ring.closed()) {
      draining = true;
      continue;
    }
    if (workers_health_ != nullptr) workers_health_->heartbeat();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

}  // namespace quicsand::net::live
