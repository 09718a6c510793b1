#include "server/sim.hpp"

#include <numeric>

#include "quic/header.hpp"

namespace quicsand::server {

namespace {

constexpr util::Timestamp kTokenEpoch = util::kApril2021Start;

}  // namespace

QuicServerSim::QuicServerSim(const ServerConfig& config)
    : config_(config),
      rng_(util::mix64(config.seed, 0x5e6e6)),
      token_minter_(rng_.bytes(32), 30 * util::kSecond) {
  // Representative flight datagram sizes for byte accounting when no
  // response sink is attached (one sample build, v1).
  util::Rng size_rng(1);
  auto ctx = quic::HandshakeContext::random(1, size_rng);
  flight_sizes_[0] =
      quic::build_server_initial_handshake(ctx, size_rng,
                                           quic::CryptoFidelity::kFast)
          .size();
  flight_sizes_[1] = quic::build_server_handshake(
                         ctx, size_rng, quic::CryptoFidelity::kFast)
                         .size();
  flight_sizes_[2] = quic::build_server_handshake_ping(
                         ctx, size_rng, quic::CryptoFidelity::kFast)
                         .size();
  flight_sizes_[3] = flight_sizes_[2];
}

void QuicServerSim::set_response_sink(ResponseSink sink,
                                      quic::CryptoFidelity fidelity) {
  sink_ = std::move(sink);
  sink_fidelity_ = fidelity;
}

void QuicServerSim::expire(util::Timestamp now) {
  while (!active_.empty() && active_.top() <= now) active_.pop();
}

bool QuicServerSim::rx_admit(util::Timestamp now) {
  // Token bucket over the aggregate worker packet-processing rate, with
  // one second of burst capacity (the kernel socket buffer).
  const double rate =
      config_.per_worker_pps * static_cast<double>(config_.workers);
  if (!rx_initialized_) {
    rx_initialized_ = true;
    rx_last_ = now;
    rx_tokens_ = rate;
  }
  // Tolerate slight reordering between interleaved streams: a packet
  // carrying an earlier timestamp must not drain the bucket.
  const double elapsed = std::max(0.0, util::to_seconds(now - rx_last_));
  rx_tokens_ = std::min(rate, rx_tokens_ + rate * elapsed);
  rx_last_ = std::max(rx_last_, now);
  if (rx_tokens_ < 1.0) return false;
  rx_tokens_ -= 1.0;
  return true;
}

bool QuicServerSim::retry_active() const {
  switch (config_.effective_retry_mode()) {
    case RetryMode::kOff:
      return false;
    case RetryMode::kAlways:
      return true;
    case RetryMode::kAdaptive:
      return static_cast<double>(active_.size()) >=
             config_.adaptive_retry_load *
                 static_cast<double>(config_.total_slots());
  }
  return false;
}

void QuicServerSim::respond_flight(util::Timestamp now,
                                   const quic::LongHeaderView& view,
                                   std::size_t request_bytes) {
  // Anti-amplification (RFC 9000 §8.1): before address validation the
  // server may send at most 3x the bytes it received. The standard
  // handshake flight (~2.3 KB for a 1.2 KB Initial) fits; the budget is
  // enforced anyway so alternative flight shapes stay compliant.
  const std::size_t budget = 3 * request_bytes;
  std::size_t sent = 0;
  if (!sink_) {
    int datagrams = 0;
    for (const std::size_t size : flight_sizes_) {
      if (sent + size > budget) break;
      sent += size;
      ++datagrams;
    }
    stats_.server_responses += static_cast<std::uint64_t>(datagrams);
    stats_.bytes_sent += sent;
    return;
  }
  quic::HandshakeContext ctx;
  ctx.version = view.version;
  ctx.client_dcid = quic::ConnectionId(view.dcid);
  ctx.client_scid = quic::ConnectionId(view.scid);
  ctx.server_scid = quic::ConnectionId(rng_.bytes(16));
  const std::pair<util::Duration, std::vector<std::uint8_t>> datagrams[] = {
      {util::Duration{},
       quic::build_server_initial_handshake(ctx, rng_, sink_fidelity_)},
      {10 * util::kMillisecond,
       quic::build_server_handshake(ctx, rng_, sink_fidelity_)},
      {2 * util::kSecond,
       quic::build_server_handshake_ping(ctx, rng_, sink_fidelity_)},
      {4 * util::kSecond,
       quic::build_server_handshake_ping(ctx, rng_, sink_fidelity_)},
  };
  for (const auto& [offset, datagram] : datagrams) {
    if (sent + datagram.size() > budget) break;
    sent += datagram.size();
    ++stats_.server_responses;
    sink_(now + offset, datagram);
  }
  stats_.bytes_sent += sent;
}

void QuicServerSim::respond_retry(util::Timestamp now,
                                  const quic::LongHeaderView& view) {
  ++stats_.retries_sent;
  ++stats_.server_responses;
  // The sim has no real client address; bind tokens to a fixed tuple.
  const quic::ConnectionId dcid(view.dcid);
  const auto token = token_minter_.mint(net::Ipv4Address(0x0a000001), 443,
                                        dcid, kTokenEpoch);
  if (!sink_) {
    // header(~20) + token + 16-byte integrity tag.
    stats_.bytes_sent += 20 + token.size() + 16;
    return;
  }
  const auto new_scid = quic::ConnectionId(rng_.bytes(8));
  const auto packet = quic::build_retry_packet(
      view.version, quic::ConnectionId(view.scid), new_scid, token, dcid);
  stats_.bytes_sent += packet.size();
  sink_(now, packet);
}

bool QuicServerSim::filter_admit(util::Timestamp now,
                                 net::Ipv4Address source) {
  if (!config_.per_source_rate_limit) return true;
  if (filter_.size() >= config_.filter_table_limit &&
      !filter_.contains(source.value())) {
    // Table full: evict everything (the realistic failure mode of
    // stateful filters under randomly spoofed floods).
    filter_.clear();
    ++stats_.filter_table_evictions;
  }
  auto [it, inserted] =
      filter_.try_emplace(source.value(),
                          std::pair<double, util::Timestamp>{
                              config_.per_source_pps, now});
  auto& [tokens, last] = it->second;
  if (!inserted) {
    const double elapsed = std::max(0.0, util::to_seconds(now - last));
    tokens = std::min(config_.per_source_pps,
                      tokens + config_.per_source_pps * elapsed);
    last = std::max(last, now);
  }
  if (tokens < 1.0) return false;
  tokens -= 1.0;
  return true;
}

void QuicServerSim::on_datagram(util::Timestamp now,
                                std::span<const std::uint8_t> payload,
                                net::Ipv4Address source) {
  ++stats_.client_requests;
  stats_.bytes_received += payload.size();
  expire(now);
  if (!filter_admit(now, source)) {
    ++stats_.dropped_filtered;
    return;
  }
  if (!rx_admit(now)) {
    ++stats_.dropped_rx_queue;
    return;
  }
  const auto view = quic::parse_long_header(payload, 0);
  if (!view || view->is_version_negotiation() ||
      view->type != quic::PacketType::kInitial) {
    ++stats_.malformed;
    return;
  }

  if (view->token_length == 0 && retry_active()) {
    respond_retry(now, *view);
    return;
  }

  bool validated_token = false;
  if (view->token_length > 0) {
    validated_token = token_minter_
                          .validate(view->token, net::Ipv4Address(0x0a000001),
                                    443, kTokenEpoch + util::kSecond)
                          .has_value();
    if (!validated_token &&
        config_.effective_retry_mode() != RetryMode::kOff) {
      // Garbage token: answered with a fresh Retry (stateless).
      respond_retry(now, *view);
      return;
    }
  }

  if (active_.size() >= config_.total_slots()) {
    ++stats_.dropped_no_slot;
    return;
  }
  // Spoofed handshakes never complete and pin state for the full
  // handshake timeout; validated ones finish and free the slot quickly.
  active_.push(now + (validated_token ? config_.validated_hold
                                      : config_.handshake_hold));
  stats_.peak_connections = std::max<std::uint64_t>(
      stats_.peak_connections, active_.size());
  if (validated_token) {
    ++stats_.completed_token_handshakes;
  } else {
    ++stats_.accepted;
  }
  respond_flight(now, *view, payload.size());
}

const SimStats& QuicServerSim::finish(util::Timestamp now) {
  expire(now);
  return stats_;
}

}  // namespace quicsand::server
