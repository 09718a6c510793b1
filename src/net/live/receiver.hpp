// Live UDP ingestion front-end: the telescope sensor's capture loop.
//
// One receiver thread drains the socket with batched recvmmsg, parses
// the QSL1/QSL2 frame (or stamps arrival time), shards each datagram by
// the IPv4 source address with util::shard_of — the partition the
// parallel pipeline uses, so per-shard sessionization stays exact — and
// hands it to that shard's bounded drop-oldest Ring. One worker thread
// per shard pops packets and invokes the caller's sink (classifier +
// detector shard in `monitor --live`). Per-shard packet order is the socket
// arrival order, so each shard sees non-decreasing timestamps whenever
// the sender emits in time order.
//
// Accounting invariant (asserted end-to-end in tests/live_e2e_test.cpp):
//
//   sent == delivered + dropped_ring + dropped_kernel
//
// where dropped_kernel counts socket-buffer overflow (SO_RXQ_OVFL) and
// dropped_ring counts drop-oldest evictions. Undecodable payloads are
// *delivered* and counted, never fatal: the sensor must survive any
// bytes the internet throws at UDP/443.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/live/ring.hpp"
#include "net/live/socket.hpp"
#include "net/packet.hpp"
#include "obs/health.hpp"
#include "obs/hooks.hpp"

namespace quicsand::net::live {

struct LiveReceiverConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
  /// Analysis shards == worker threads == rings.
  std::size_t shards = 1;
  /// Per-shard ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = std::size_t{1} << 16;
  /// SO_RCVBUF request; best effort (kernel clamps to rmem_max).
  std::size_t rcvbuf_bytes = std::size_t{1} << 22;
  obs::Hooks obs;
};

/// Wall-clock stamps (microseconds since the epoch) one datagram picked
/// up on its way through the live path; -1 where unknown. send_wall_us
/// comes off the QSL2 header, so wire latency is only meaningful when
/// sender and receiver share a clock (loopback, or NTP-close hosts).
struct DatagramTiming {
  std::int64_t send_wall_us = -1;  ///< QSL2 sender stamp
  std::int64_t recv_wall_us = -1;  ///< socket batch arrival
  bool sampled = false;  ///< selected for per-stage histogram recording
};

class LiveReceiver {
 public:
  /// Invoked on the shard's worker thread, packets in arrival order.
  /// The sink owns per-shard state (classifier, detector shard) and
  /// needs no locking as long as it keeps shards independent. `timing`
  /// carries the datagram's wire/arrival stamps for detection-latency
  /// accounting downstream.
  using Sink = std::function<void(std::size_t shard,
                                  const net::RawPacket& packet,
                                  const DatagramTiming& timing)>;

  explicit LiveReceiver(LiveReceiverConfig config);
  ~LiveReceiver();

  LiveReceiver(const LiveReceiver&) = delete;
  LiveReceiver& operator=(const LiveReceiver&) = delete;

  /// Bind and spawn the receiver + worker threads. False (with
  /// last_error() set) when the socket cannot be bound.
  bool start(Sink sink);

  /// Stop receiving, drain every ring through the sinks, join all
  /// threads. Idempotent; also called by the destructor.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }
  /// Actual bound port (resolves port 0 after start()).
  [[nodiscard]] std::uint16_t port() const { return socket_.local_port(); }
  [[nodiscard]] const std::string& last_error() const { return error_; }
  [[nodiscard]] std::size_t shard_count() const { return config_.shards; }

  // Accounting (monotonic, readable while running).
  [[nodiscard]] std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_ring() const {
    return dropped_ring_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_kernel() const {
    return dropped_kernel_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped_total() const {
    return dropped_ring() + dropped_kernel();
  }
  [[nodiscard]] std::uint64_t undecodable() const {
    return undecodable_.load(std::memory_order_relaxed);
  }

 private:
  /// Ring element: the packet plus its lifecycle stamps.
  struct TimedPacket {
    net::RawPacket packet;
    DatagramTiming timing;
  };

  /// Per-shard pipeline-lag watermarks, padded to a cache line: the
  /// receive loop advances `enqueued_event_us`, the shard worker
  /// advances `processed_event_us`, and their difference is the shard's
  /// event-time lag gauge. `ring_high_water` is the largest ring
  /// occupancy the receive loop has observed.
  struct alignas(64) ShardWatermark {
    std::atomic<std::int64_t> enqueued_event_us{0};
    std::atomic<std::int64_t> processed_event_us{0};
    std::atomic<std::uint64_t> ring_high_water{0};
  };

  void receive_loop();
  void worker_loop(std::size_t shard);

  LiveReceiverConfig config_;
  Sink sink_;
  UdpSocket socket_;
  std::string error_;
  std::vector<std::unique_ptr<Ring<TimedPacket>>> rings_;
  std::vector<std::unique_ptr<ShardWatermark>> watermarks_;
  std::thread receive_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_ring_{0};
  std::atomic<std::uint64_t> dropped_kernel_{0};
  std::atomic<std::uint64_t> undecodable_{0};

  // Resolved metric handles; nullptr without an attached registry.
  obs::Counter* received_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;        ///< live.dropped_packets
  obs::Counter* dropped_ring_counter_ = nullptr;
  obs::Counter* dropped_kernel_counter_ = nullptr;
  obs::Counter* undecodable_counter_ = nullptr;
  obs::Histogram* batch_hist_ = nullptr;
  obs::Gauge* ring_depth_gauge_ = nullptr;
  // Per-stage latency histograms for sampled datagrams.
  obs::Histogram* wire_latency_ = nullptr;     ///< send -> arrival
  obs::Histogram* ring_latency_ = nullptr;     ///< arrival -> pop
  obs::Histogram* process_latency_ = nullptr;  ///< pop -> sink done
  obs::Histogram* e2e_latency_ = nullptr;      ///< send -> sink done
  // Per-shard watermark gauges, indexed by shard.
  std::vector<obs::Gauge*> shard_lag_gauges_;
  std::vector<obs::Gauge*> shard_high_water_gauges_;
  obs::Health::Component* receiver_health_ = nullptr;
  obs::Health::Component* workers_health_ = nullptr;
};

}  // namespace quicsand::net::live
