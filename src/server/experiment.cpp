#include "server/experiment.hpp"

#include "quic/dissector.hpp"
#include "quic/header.hpp"

namespace quicsand::server {

namespace {

/// One honest client: sends an Initial, follows a Retry with a token'd
/// Initial. Outcomes are inferred from the server's responses, captured
/// through the response sink.
struct HonestClient {
  quic::HandshakeContext ctx;
  std::vector<std::uint8_t> initial;
};

}  // namespace

ClientExperienceResult run_client_experience(
    const ServerConfig& server_config,
    const ClientExperienceConfig& config) {
  ClientExperienceResult result;
  QuicServerSim sim(server_config);
  util::Rng rng(util::mix64(config.seed, 0x1e617));

  // Capture the most recent response so each honest exchange can react
  // to what the server actually sent (flight vs Retry).
  std::vector<std::uint8_t> last_response;
  bool got_response = false;
  sim.set_response_sink(
      [&](util::Timestamp, std::span<const std::uint8_t> bytes) {
        if (!got_response) {
          last_response.assign(bytes.begin(), bytes.end());
          got_response = true;
        }
      },
      quic::CryptoFidelity::kFast);

  RecordedFlood flood(config.flood);
  auto flood_record = flood.next();
  const util::Timestamp start = config.flood.start;
  const util::Timestamp end =
      start + util::from_seconds(static_cast<double>(config.flood.packets) /
                                 config.flood.pps);
  util::Timestamp next_legit =
      start + util::from_seconds(rng.exponential(config.legit_rate));

  const net::Ipv4Address legit_address(0x0a000001);

  auto run_legit = [&](util::Timestamp now) {
    ++result.attempts;
    auto ctx = quic::HandshakeContext::random(1, rng);
    const auto initial = quic::build_client_initial(
        ctx, "honest.example", rng, quic::CryptoFidelity::kFast);
    got_response = false;
    sim.on_datagram(now, initial, legit_address);
    if (!got_response) {
      ++result.failed;
      return;
    }
    const auto view = quic::parse_long_header(last_response, 0);
    if (view && view->type == quic::PacketType::kRetry) {
      // Token dance: resend carrying the server's token toward its new
      // connection id, one simulated round trip later.
      const std::vector<std::uint8_t> token(view->retry_token.begin(),
                                            view->retry_token.end());
      ctx.client_dcid = quic::ConnectionId(view->scid);
      const auto second = quic::build_client_initial(
          ctx, "honest.example", rng, quic::CryptoFidelity::kFast, token);
      got_response = false;
      sim.on_datagram(now + 30 * util::kMillisecond, second, legit_address);
      if (got_response) {
        ++result.completed_two_rtt;
      } else {
        ++result.failed;
      }
      return;
    }
    ++result.completed_one_rtt;
  };

  // Merge the flood stream with the honest arrivals in time order.
  while (flood_record || next_legit < end) {
    const bool legit_first =
        !flood_record || next_legit <= flood_record->time;
    if (legit_first) {
      if (next_legit >= end) break;
      run_legit(next_legit);
      next_legit += util::from_seconds(rng.exponential(config.legit_rate));
    } else {
      sim.on_datagram(flood_record->time, flood_record->datagram,
                      flood_record->source);
      flood_record = flood.next();
    }
  }
  result.server_stats = sim.finish(end);
  return result;
}

}  // namespace quicsand::server
