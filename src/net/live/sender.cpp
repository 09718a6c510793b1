#include "net/live/sender.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "net/live/frame.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace quicsand::net::live {

std::optional<RateMode> parse_rate_mode(std::string_view name) {
  if (name == "constant") return RateMode::kConstant;
  if (name == "burst") return RateMode::kBurst;
  if (name == "ramp") return RateMode::kRamp;
  if (name == "chaos") return RateMode::kChaos;
  return std::nullopt;
}

std::string_view rate_mode_name(RateMode mode) {
  switch (mode) {
    case RateMode::kConstant:
      return "constant";
    case RateMode::kBurst:
      return "burst";
    case RateMode::kRamp:
      return "ramp";
    case RateMode::kChaos:
      return "chaos";
  }
  return "constant";
}

RateController::RateController(RateMode mode, double target_pps,
                               std::uint64_t seed, double ramp_window_s)
    : mode_(mode),
      target_pps_(std::max(target_pps, 1.0)),
      seed_(seed),
      ramp_window_s_(std::max(ramp_window_s, 0.001)) {}

double RateController::pps_at(double elapsed_s) const {
  if (elapsed_s < 0) elapsed_s = 0;
  switch (mode_) {
    case RateMode::kConstant:
      return target_pps_;
    case RateMode::kBurst: {
      // 2x/0.2x alternating seconds: same average neighborhood as
      // constant, but each on-second must drain through the rings.
      const auto second = static_cast<std::uint64_t>(elapsed_s);
      return (second % 2 == 0) ? 2.0 * target_pps_ : 0.2 * target_pps_;
    }
    case RateMode::kRamp: {
      const double frac = std::min(elapsed_s / ramp_window_s_, 1.0);
      return std::max(2.0 * target_pps_ * frac, 0.01 * target_pps_);
    }
    case RateMode::kChaos: {
      // Per-second multiplier in [0.2, 3.0] hashed from the second
      // index, so every controller with this seed replays identically.
      const auto second = static_cast<std::uint64_t>(elapsed_s);
      const std::uint64_t h = util::mix64(seed_, second);
      const double unit =
          static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
      return target_pps_ * (0.2 + 2.8 * unit);
    }
  }
  return target_pps_;
}

LiveSender::LiveSender(LiveSenderConfig config)
    : config_(std::move(config)),
      controller_(config_.mode, config_.pps, config_.seed,
                  config_.ramp_window_s) {}

namespace {

/// Token bucket shared by both send paths: credit accrues at the
/// controller's instantaneous rate and is spent one datagram per token.
/// The cap bounds the burst we emit after a scheduling stall to a few
/// socket batches.
class Pacer {
 public:
  explicit Pacer(const RateController& controller)
      : controller_(controller), start_(Clock::now()) {}

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Block until `need` tokens are available (or `*stop` turns true),
  /// then spend them.
  void acquire(std::size_t need, const std::atomic<bool>* stop) {
    for (;;) {
      const double now = elapsed_s();
      credit_ += controller_.pps_at(now) * (now - last_);
      last_ = now;
      credit_ =
          std::min(credit_, 4.0 * static_cast<double>(ReceiveBatch::kMax));
      if (credit_ >= static_cast<double>(need)) break;
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
      const double deficit = static_cast<double>(need) - credit_;
      const double wait_s =
          std::clamp(deficit / controller_.pps_at(now), 20e-6, 2e-3);
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
    }
    credit_ -= static_cast<double>(need);
  }

 private:
  using Clock = std::chrono::steady_clock;
  const RateController& controller_;
  Clock::time_point start_;
  double credit_ = 0.0;
  double last_ = 0.0;
};

struct SendCounters {
  obs::Counter* sent = nullptr;
  obs::Counter* failures = nullptr;
};

SendCounters make_send_counters(obs::MetricsRegistry* metrics) {
  SendCounters counters;
  if (metrics != nullptr) {
    counters.sent = &metrics->counter("live.sent_packets",
                                      "datagrams pushed onto the wire");
    counters.failures = &metrics->counter("live.send_failures",
                                          "datagrams lost to send errors");
  }
  return counters;
}

/// Stamp (QSL2 payloads only) and send one chunk, folding the result
/// into `stats`. The wall clock is read once per sendmmsg batch: every
/// frame in the chunk shares one send stamp, which is at most one batch
/// (~64 packets) of skew — far below the scheduling noise floor.
void stamp_and_send(UdpSocket& socket, bool encapsulate,
                    std::span<std::vector<std::uint8_t>> chunk,
                    const SendCounters& counters, SendStats& stats,
                    std::string& error) {
  if (encapsulate) {
    const std::int64_t stamp = wall_clock_us();
    for (auto& payload : chunk) patch_send_stamp(payload, stamp);
  }
  const std::size_t accepted =
      socket.send_batch({chunk.data(), chunk.size()});
  stats.sent += accepted;
  if (counters.sent != nullptr) counters.sent->add(accepted);
  if (accepted < chunk.size()) {
    const auto failed = static_cast<std::uint64_t>(chunk.size() - accepted);
    stats.send_failures += failed;
    if (counters.failures != nullptr) counters.failures->add(failed);
    error = socket.last_error();
  }
}

}  // namespace

SendStats LiveSender::send_batches(const BatchSource& fill,
                                   const std::atomic<bool>* stop) {
  SendStats stats;
  if (!socket_.connect(config_.host, config_.port)) {
    error_ = socket_.last_error();
    return stats;
  }
  const auto counters = make_send_counters(config_.obs.metrics);
  Pacer pacer(controller_);

  net::RecordBatch records;
  // Frame buffers are reused across refills: frames[i] keeps its heap
  // allocation and is overwritten in place, so steady-state sending
  // performs no per-packet allocation — the point of the batched path.
  std::vector<std::vector<std::uint8_t>> frames;
  bool more = true;
  while (more && (stop == nullptr ||
                  !stop->load(std::memory_order_relaxed))) {
    records.clear();
    more = fill(records);
    const std::size_t n = records.size();
    if (n == 0) {
      if (!more) break;
      continue;
    }
    if (frames.size() < n) frames.resize(n);
    const std::size_t header = config_.encapsulate ? kFrameHeaderSizeV2 : 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto view = records.view(i);
      auto& buf = frames[i];
      buf.resize(header + view.data.size());
      if (config_.encapsulate) {
        std::copy(std::begin(kFrameMagicV2), std::end(kFrameMagicV2),
                  buf.begin());
        const auto ts = static_cast<std::uint64_t>(view.timestamp.count());
        for (std::size_t b = 0; b < 8; ++b) {
          buf[4 + b] = static_cast<std::uint8_t>(ts >> (8 * (7 - b)));
          buf[kSendStampOffset + b] = 0;  // patched at send time
        }
      }
      std::copy(view.data.begin(), view.data.end(), buf.data() + header);
    }

    for (std::size_t offset = 0; offset < n;) {
      const std::size_t chunk = std::min(n - offset, ReceiveBatch::kMax);
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
      pacer.acquire(chunk, stop);
      stamp_and_send(socket_, config_.encapsulate,
                     {frames.data() + offset, chunk}, counters, stats,
                     error_);
      offset += chunk;
    }
  }

  stats.elapsed_s = pacer.elapsed_s();
  stats.achieved_pps =
      stats.elapsed_s > 0 ? static_cast<double>(stats.sent) / stats.elapsed_s
                          : 0.0;
  socket_.close();
  return stats;
}

}  // namespace quicsand::net::live
