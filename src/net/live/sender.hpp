// Loopback traffic generator: the attack side of the live harness.
//
// LiveSender streams synthetic IPv4 datagrams (QSL2-encapsulated so the
// receiver sees the scenario's spoofed sources and timestamps, plus a
// wall-clock send stamp patched in right before each sendmmsg batch for
// one-way latency measurement) to a UDP endpoint with batched sendmmsg,
// pacing the stream through a token bucket whose fill rate comes from a
// RateController:
//
//   constant  target pps throughout
//   burst     alternates ~2x and ~0.2x of target every second
//   ramp      linear 0 -> 2x target over the stream
//   chaos     seeded per-second random multiplier in [0.2x, 3x]
//
// All modes average roughly the target rate; they differ in how bursty
// the instantaneous load is, which is what stresses the receiver's
// drop-oldest rings differently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "net/live/socket.hpp"
#include "net/record_batch.hpp"
#include "obs/hooks.hpp"
#include "util/time.hpp"

namespace quicsand::net::live {

enum class RateMode : std::uint8_t { kConstant, kBurst, kRamp, kChaos };

/// "constant" | "burst" | "ramp" | "chaos"; nullopt otherwise.
std::optional<RateMode> parse_rate_mode(std::string_view name);
std::string_view rate_mode_name(RateMode mode);

/// Instantaneous packet rate as a function of elapsed stream time.
/// Deterministic for a given (mode, target, seed): chaos derives its
/// per-second multiplier by hashing the second index, not by a stateful
/// walk, so two controllers with the same seed always agree.
class RateController {
 public:
  /// `ramp_window_s` is the time over which ramp reaches 2x target.
  RateController(RateMode mode, double target_pps, std::uint64_t seed,
                 double ramp_window_s = 10.0);

  [[nodiscard]] double pps_at(double elapsed_s) const;
  [[nodiscard]] RateMode mode() const { return mode_; }
  [[nodiscard]] double target_pps() const { return target_pps_; }

 private:
  RateMode mode_;
  double target_pps_;
  std::uint64_t seed_;
  double ramp_window_s_;
};

struct LiveSenderConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double pps = 100000.0;  ///< target rate the controller modulates
  RateMode mode = RateMode::kConstant;
  std::uint64_t seed = 1;
  /// Wrap each datagram in a QSL2 frame carrying its scenario timestamp
  /// and a wall-clock send stamp. False sends the raw datagram bytes
  /// (deployable mode: the receiver stamps arrival time instead).
  bool encapsulate = true;
  /// Ramp window for RateMode::kRamp; ignored by other modes.
  double ramp_window_s = 10.0;
  obs::Hooks obs;
};

struct SendStats {
  std::uint64_t sent = 0;           ///< datagrams the kernel accepted
  std::uint64_t send_failures = 0;  ///< datagrams lost to send errors
  double elapsed_s = 0.0;
  double achieved_pps = 0.0;
};

class LiveSender {
 public:
  /// Refills a cleared RecordBatch with the next run of records; returns
  /// false once the stream is exhausted (records appended on that final
  /// call are still sent).
  using BatchSource = std::function<bool(net::RecordBatch&)>;

  explicit LiveSender(LiveSenderConfig config);

  LiveSender(const LiveSender&) = delete;
  LiveSender& operator=(const LiveSender&) = delete;

  /// Connect, then drain `fill` through the paced socket until it
  /// reports the end of the stream or `*stop` turns true. Blocking;
  /// returns the achieved totals. On connect failure returns zeroed
  /// stats with last_error() set. Frame buffers are reused across
  /// batches, so steady-state sending allocates nothing per packet, and
  /// the socket sees <= ReceiveBatch::kMax payloads per sendmmsg.
  SendStats send_batches(const BatchSource& fill,
                         const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const std::string& last_error() const { return error_; }

 private:
  LiveSenderConfig config_;
  RateController controller_;
  UdpSocket socket_;
  std::string error_;
};

}  // namespace quicsand::net::live
