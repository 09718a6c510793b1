#include "telescope/emitters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "net/headers.hpp"
#include "quic/gquic.hpp"
#include "quic/header.hpp"
#include "quic/version.hpp"

namespace quicsand::telescope {

std::optional<net::RawPacket> PacketEmitter::next() {
  if (!stage()) return std::nullopt;
  net::RawPacket packet(staged_time(),
                        std::vector<std::uint8_t>(staged_size()));
  emit(packet.data);
  return packet;
}

namespace {

constexpr std::uint16_t kQuicPort = 443;

std::uint16_t ephemeral_port(util::Rng& rng) {
  return static_cast<std::uint16_t>(32768 + rng.uniform(28232));
}

net::Ipv4Header ip_header(net::Ipv4Address src, net::Ipv4Address dst,
                          util::Rng& rng) {
  net::Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.ttl = static_cast<std::uint8_t>(48 + rng.uniform(200));
  ip.identification = static_cast<std::uint16_t>(rng.next());
  return ip;
}

net::Ipv4Address random_in_prefix(const net::Ipv4Prefix& prefix,
                                  util::Rng& rng) {
  return prefix.at(rng.uniform(prefix.size()));
}

}  // namespace

// ---------------------------------------------------------------------------
// ResearchScanEmitter

ResearchScanEmitter::ResearchScanEmitter(
    const ScenarioConfig& scenario, const ResearchScannerConfig& config,
    net::Ipv4Prefix source_prefix, std::uint64_t seed)
    : telescope_(scenario.telescope),
      pass_duration_(config.pass_duration),
      rng_(util::mix64(seed, config.asn)) {
  // Deterministic pass schedule: evenly spaced with a per-scanner phase,
  // so short windows still contain the expected number of passes.
  const double interval_days = 1.0 / config.passes_per_day;
  const double phase = 0.17 + 0.31 * rng_.uniform01();
  for (double day = phase * interval_days; day < scenario.days;
       day += interval_days) {
    pass_starts_.push_back(
        scenario.start + util::Duration{static_cast<std::int64_t>(
                             day * static_cast<double>(util::kDay.count()))});
  }

  // Template probe: a padded client Initial from a fixed scanner host.
  // Per probe, emit() rewrites the IPv4 header (destination, source host
  // bits, IP id) and patches the DCID; the UDP checksum is left as 0
  // ("none"), which RFC 768 permits and scanners commonly do.
  auto ctx = quic::HandshakeContext::random(config.version, rng_);
  const auto payload = quic::build_client_initial(
      ctx, "", rng_, quic::CryptoFidelity::kFast);
  template_ip_ = ip_header(source_prefix.at(0x20), telescope_.base(), rng_);
  template_packet_ = net::build_udp(template_ip_, 34434, kQuicPort, payload);
  template_packet_[26] = 0;  // UDP checksum: none
  template_packet_[27] = 0;
  start_next_pass();
}

void ResearchScanEmitter::start_next_pass() {
  if (pass_index_ >= pass_starts_.size()) {
    current_pass_.reset();
    return;
  }
  scanner::ScanPassConfig pass;
  pass.telescope = telescope_;
  pass.start = pass_starts_[pass_index_];
  pass.duration = pass_duration_;
  pass.coverage = 1.0;
  pass.seed = util::mix64(rng_.next(), pass_index_);
  current_pass_ = std::make_unique<scanner::ScanPass>(pass);
  ++pass_index_;
}

bool ResearchScanEmitter::stage() {
  while (current_pass_) {
    const auto probe = current_pass_->next();
    if (!probe) {
      start_next_pass();
      continue;
    }
    target_ = probe->target;
    // Scanner host: a handful of machines inside the source prefix.
    host_ = static_cast<std::uint8_t>(0x20 + rng_.uniform(8));
    // Fresh IP id and DCID per probe.
    random_ = rng_.next();
    set_staged(probe->time, template_packet_.size());
    return true;
  }
  return false;
}

void ResearchScanEmitter::emit(std::span<std::uint8_t> out) {
  // DCID starts after IP(20) + UDP(8) + flags(1) + version(4) + len(1).
  constexpr std::size_t kDcidOffset = 34;
  if (out.size() < template_packet_.size()) {
    throw std::out_of_range("ResearchScanEmitter::emit: short buffer");
  }
  std::copy(template_packet_.begin(), template_packet_.end(), out.begin());
  net::Ipv4Header ip = template_ip_;
  ip.src = net::Ipv4Address((ip.src.value() & ~0xffu) | host_);
  ip.dst = target_;
  ip.identification = static_cast<std::uint16_t>(((random_ & 0xff) << 8) |
                                                 ((random_ >> 8) & 0xff));
  net::write_ipv4_header(out, ip, template_packet_.size() - 20);
  for (std::size_t i = 0; i < 8; ++i) {
    out[kDcidOffset + i] = static_cast<std::uint8_t>(random_ >> (8 * i));
  }
}

// ---------------------------------------------------------------------------
// BotnetSessionEmitter

BotnetSessionEmitter::BotnetSessionEmitter(const ScenarioConfig& scenario,
                                           net::Ipv4Address source,
                                           util::Timestamp start,
                                           std::uint64_t packet_count,
                                           std::uint64_t seed)
    : telescope_(scenario.telescope),
      fidelity_(scenario.fidelity),
      gap_rate_(1.0 / util::to_seconds(scenario.botnet.intra_gap_mean)),
      source_(source),
      time_(start),
      remaining_(packet_count),
      rng_(util::mix64(seed, source.value())) {}

bool BotnetSessionEmitter::stage() {
  if (remaining_ == 0) return false;
  --remaining_;
  auto ctx = quic::HandshakeContext::random(
      rng_.bernoulli(0.8) ? 1u : 0xff00001du, rng_);
  datagram_.clear();
  quic::build_client_initial_into(datagram_, ctx, "", rng_, fidelity_,
                                  scratch_);
  const auto target = random_in_prefix(telescope_, rng_);
  // Draw order (port before IP header) matches the historical
  // right-to-left evaluation of build_udp's arguments.
  source_port_ = ephemeral_port(rng_);
  header_ = ip_header(source_, target, rng_);
  set_staged(time_, net::udp_size(datagram_.size()));
  time_ += util::from_seconds(rng_.exponential(gap_rate_));
  return true;
}

void BotnetSessionEmitter::emit(std::span<std::uint8_t> out) {
  net::write_udp(out, header_, source_port_, kQuicPort, datagram_.view());
}

// ---------------------------------------------------------------------------
// QuicBackscatterEmitter

QuicBackscatterEmitter::QuicBackscatterEmitter(const ScenarioConfig& scenario,
                                               const PlannedAttack& attack,
                                               std::uint64_t seed)
    : victim_(attack.victim),
      quic_version_(attack.quic_version),
      fidelity_(scenario.fidelity),
      rng_(util::mix64(seed,
                       attack.victim.value() ^
                           static_cast<std::uint64_t>(attack.start.count()))) {
  // Spoofed client addresses that fall inside the telescope: attackers
  // randomize ports over a modest IP set (§5.2 / Figure 9).
  const std::size_t ip_count = 1 + rng_.uniform(18);
  spoofed_clients_.reserve(ip_count);
  for (std::size_t i = 0; i < ip_count; ++i) {
    spoofed_clients_.push_back(random_in_prefix(scenario.telescope, rng_));
  }
  // Convert the target packet rate into a connection arrival rate via
  // the expected flight size (implementation dependent, see
  // flight_profile). The attack runs at a base rate with one burst
  // minute at the full peak, so the detector's 1-minute maximum matches
  // the planned peak without inflating the total volume.
  resetter_ = std::make_unique<quic::StatelessResetter>(
      util::Rng(util::mix64(0x5e7, attack.victim.value())).bytes(32));
  profile_ = flight_profile(attack.quic_version);
  connection_rate_ =
      std::max(0.005, attack.peak_pps * 0.42 / profile_.mean_datagrams);
  burst_rate_ = std::max(connection_rate_,
                         attack.peak_pps / profile_.mean_datagrams);
  attack_end_ = attack.start + attack.duration;
  const auto burst_slack = attack.duration > util::kMinute
                               ? attack.duration - util::kMinute
                               : util::Duration{0};
  burst_start_ = attack.start +
                 util::Duration{static_cast<std::int64_t>(rng_.uniform(
                     static_cast<std::uint64_t>(burst_slack.count()) + 1))};
  next_connection_ = attack.start;
  refill();
}

FlightProfile flight_profile(std::uint32_t version) {
  // mvfst (Facebook) retransmits its handshake flight aggressively and
  // keeps probing, so one spoofed connection elicits more datagrams than
  // a draft-29/v1 (Google-style) stack. This is what makes Google show
  // MORE SCIDs per attack DESPITE fewer packets (Figure 9): the same
  // packet rate covers more connections.
  if (quic::version_family(version) == quic::VersionFamily::kIetf &&
      (version & 0xffffff00) == 0xfaceb000) {
    return {0.95, 0.75, 0.95, 0.85,
            2 + (0.95 + 0.95 * 0.75) + 2 * 0.95 + 0.85};
  }
  return {0.45, 0.25, 0.40, 0.65,
          2 + (0.45 + 0.45 * 0.25) + 2 * 0.40 + 0.65};
}

void QuicBackscatterEmitter::schedule_connection(util::Timestamp start) {
  // The victim answers one spoofed Initial: [Initial+Handshake],
  // [Handshake], PTO retransmits, keep-alive PINGs, and sometimes a
  // stateless reset when the attacker reuses a 5-tuple the server
  // already dropped. The mixture reproduces the §6 message composition
  // (~31% Initial / ~57% Handshake / rest other).
  quic::HandshakeContext ctx =
      quic::HandshakeContext::random(quic_version_, rng_);
  const auto client = spoofed_clients_[rng_.uniform(spoofed_clients_.size())];
  const std::uint16_t client_port = ephemeral_port(rng_);

  // Enqueues the QUIC datagram built in payload_builder_ with its IP/UDP
  // fields, and puts a recycled buffer in the builder. The datagram is
  // always built first and the IP header draws happen only inside the
  // budget check, preserving the historical right-to-left argument
  // evaluation draw order.
  auto push = [&](util::Duration offset) {
    if (budget_ <= 0) return;
    --budget_;
    const auto header = ip_header(victim_, client, rng_);
    pending_.push(Scheduled{start + offset, header, client_port,
                            payload_builder_.take()});
    payload_builder_.reset(take_spare());
  };

  // A small share of attack tools probe with versions the server does
  // not speak; the victim then answers with a single Version Negotiation
  // packet (§2's worst-case handshake) instead of a handshake flight.
  if (rng_.bernoulli(0.02)) {
    const std::uint32_t versions[] = {quic_version_, 0x00000001u};
    payload_builder_.clear();
    quic::build_version_negotiation_into(payload_builder_, ctx.client_scid,
                                         ctx.server_scid, versions, rng_);
    push(util::Duration{});
    return;
  }

  payload_builder_.clear();
  quic::build_server_initial_handshake_into(payload_builder_, ctx, rng_,
                                            fidelity_, scratch_);
  push(util::Duration{});
  {
    const std::size_t crypto_bytes = 700 + rng_.uniform(500);
    payload_builder_.clear();
    quic::build_server_handshake_into(payload_builder_, ctx, rng_, fidelity_,
                                      scratch_, crypto_bytes);
    push(50 * util::kMillisecond);
  }
  if (rng_.bernoulli(profile_.retx1)) {
    payload_builder_.clear();
    quic::build_server_initial_handshake_into(payload_builder_, ctx, rng_,
                                              fidelity_, scratch_);
    push(350 * util::kMillisecond);
    if (rng_.bernoulli(profile_.retx2)) {
      payload_builder_.clear();
      quic::build_server_initial_handshake_into(payload_builder_, ctx, rng_,
                                                fidelity_, scratch_);
      push(1100 * util::kMillisecond);
    }
  }
  if (rng_.bernoulli(profile_.pings)) {
    payload_builder_.clear();
    quic::build_server_handshake_ping_into(payload_builder_, ctx, rng_,
                                           fidelity_, scratch_);
    push(2 * util::kSecond);
    payload_builder_.clear();
    quic::build_server_handshake_ping_into(payload_builder_, ctx, rng_,
                                           fidelity_, scratch_);
    push(4 * util::kSecond);
  }
  if (rng_.bernoulli(profile_.reset)) {
    // Proper RFC 9000 reset: trailing token bound to the client's CID
    // under the victim's static key, randomized length. Size draw, reset
    // body, then delay draw — the historical evaluation order.
    const std::size_t reset_size = 40 + rng_.uniform(40);
    payload_builder_.clear();
    resetter_->build_into(payload_builder_, ctx.client_scid, rng_,
                          reset_size);
    push(5 * util::kSecond +
         util::Duration{static_cast<std::int64_t>(rng_.uniform(
             static_cast<std::uint64_t>((2 * util::kSecond).count())))});
  }
}

std::vector<std::uint8_t> QuicBackscatterEmitter::take_spare() {
  if (spare_.empty()) return {};
  auto buf = std::move(spare_.back());
  spare_.pop_back();
  return buf;
}

void QuicBackscatterEmitter::refill() {
  while (budget_ > 0 && next_connection_ < attack_end_ &&
         (pending_.empty() || next_connection_ <= pending_.top().time)) {
    schedule_connection(next_connection_);
    const bool in_burst = next_connection_ >= burst_start_ &&
                          next_connection_ < burst_start_ + util::kMinute;
    next_connection_ += util::from_seconds(
        rng_.exponential(in_burst ? burst_rate_ : connection_rate_));
  }
}

bool QuicBackscatterEmitter::stage() {
  refill();
  if (pending_.empty()) return false;
  // The queue orders on time alone, so moving the payload out of the top
  // element before pop() cannot perturb the heap.
  staged_ = std::move(const_cast<Scheduled&>(pending_.top()));
  pending_.pop();
  set_staged(staged_.time, net::udp_size(staged_.payload.size()));
  return true;
}

void QuicBackscatterEmitter::emit(std::span<std::uint8_t> out) {
  net::write_udp(out, staged_.header, kQuicPort, staged_.client_port,
                 staged_.payload);
  spare_.push_back(std::move(staged_.payload));
}

// ---------------------------------------------------------------------------
// CommonBackscatterEmitter

CommonBackscatterEmitter::CommonBackscatterEmitter(
    const ScenarioConfig& scenario, const PlannedAttack& attack,
    std::uint64_t seed)
    : telescope_(scenario.telescope),
      victim_(attack.victim),
      protocol_(attack.protocol),
      rng_(util::mix64(seed,
                       attack.victim.value() ^
                           static_cast<std::uint64_t>(attack.start.count()) ^
                           0xc0)) {
  service_port_ = rng_.bernoulli(0.6) ? 80 : 443;
  // TCP victims answer a spoofed SYN with ~4 SYN-ACK (re)transmissions;
  // ICMP backscatter is one reply per probe.
  const double mean_flight =
      attack.protocol == AttackProtocol::kTcp ? 4.0 : 1.0;
  connection_rate_ = std::max(0.01, attack.peak_pps * 0.8 / mean_flight);
  next_connection_ = attack.start;
  attack_end_ = attack.start + attack.duration;
}

bool CommonBackscatterEmitter::stage() {
  while (budget_ > 0 && next_connection_ < attack_end_ &&
         (pending_.empty() || next_connection_ <= pending_.top().time)) {
    const auto client = random_in_prefix(telescope_, rng_);
    const std::uint16_t client_port = ephemeral_port(rng_);
    const auto seq = static_cast<std::uint32_t>(rng_.next());
    if (protocol_ == AttackProtocol::kTcp) {
      // SYN-ACK retransmissions with exponential backoff (1s, 2s, 4s).
      util::Duration offset{};
      const int retx = 3 + static_cast<int>(rng_.uniform(3));
      for (int i = 0; i < retx && budget_ > 0; ++i) {
        --budget_;
        pending_.push(
            Scheduled{next_connection_ + offset, client, client_port, seq});
        offset = offset * 2 + util::kSecond;
      }
    } else {
      --budget_;
      pending_.push(
          Scheduled{next_connection_, client, client_port, seq});
    }
    next_connection_ +=
        util::from_seconds(rng_.exponential(connection_rate_));
  }
  if (pending_.empty()) return false;
  current_ = pending_.top();
  pending_.pop();

  if (protocol_ == AttackProtocol::kTcp) {
    reply_ = Reply::kSynAck;
    header_ = ip_header(victim_, current_.client, rng_);
    set_staged(current_.time, net::tcp_size(0));
    return true;
  }
  // ICMP backscatter: mostly echo replies to spoofed pings; some
  // port-unreachables that quote the spoofed probe (RFC 792), exactly
  // like real UDP-flood backscatter. Draw order inside each branch
  // (payload before headers) matches the historical right-to-left
  // evaluation of the builder arguments.
  if (rng_.bernoulli(0.3)) {
    reply_ = Reply::kPortUnreachable;
    rng_.fill(std::span(body_).first(kProbePayloadSize));
    probe_header_ = ip_header(current_.client, victim_, rng_);
    header_ = ip_header(victim_, current_.client, rng_);
    set_staged(current_.time,
               net::icmp_error_size(net::udp_size(kProbePayloadSize)));
    return true;
  }
  reply_ = Reply::kEchoReply;
  rng_.fill(body_);
  header_ = ip_header(victim_, current_.client, rng_);
  set_staged(current_.time, net::icmp_size(body_.size()));
  return true;
}

void CommonBackscatterEmitter::emit(std::span<std::uint8_t> out) {
  switch (reply_) {
    case Reply::kSynAck: {
      net::TcpInfo tcp;
      tcp.src_port = service_port_;
      tcp.dst_port = current_.client_port;
      tcp.seq = current_.seq;
      tcp.ack = current_.seq + 1;  // echoes the spoofed SYN's ISN + 1
      tcp.flags = net::TcpFlags::kSyn | net::TcpFlags::kAck;
      net::write_tcp(out, header_, tcp);
      return;
    }
    case Reply::kEchoReply:
      net::write_icmp(out, header_, {0, 0, body_});  // echo reply
      return;
    case Reply::kPortUnreachable: {
      // The spoofed probe: IPv4 and UDP headers plus its payload.
      std::array<std::uint8_t, 20 + 8 + kProbePayloadSize> probe;
      net::write_udp(probe, probe_header_, current_.client_port, 443,
                     std::span(body_).first(kProbePayloadSize));
      net::write_icmp_error(out, header_, 3, 3, probe);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// MisconfigEmitter

MisconfigEmitter::MisconfigEmitter(const ScenarioConfig& scenario,
                                   net::Ipv4Address source,
                                   std::uint32_t version,
                                   util::Timestamp start,
                                   std::uint64_t packet_count,
                                   std::uint64_t seed)
    : fidelity_(scenario.fidelity),
      source_(source),
      version_(version),
      time_(start),
      remaining_(packet_count),
      rng_(util::mix64(seed, source.value() ^ 0x315c)) {
  target_ = random_in_prefix(scenario.telescope, rng_);
  target_port_ = ephemeral_port(rng_);
  ctx_ = quic::HandshakeContext::random(version_, rng_);
  gap_ = packet_count > 1
             ? scenario.misconfig.session_duration /
                   static_cast<std::int64_t>(packet_count)
             : util::kSecond;
}

bool MisconfigEmitter::stage() {
  if (remaining_ == 0) return false;
  --remaining_;
  // A confused endpoint retransmitting handshake-space data and pings at
  // a stale address: low volume, short-lived (Appendix B). A share of
  // these endpoints still run legacy gQUIC (Q0xx public headers). Draws
  // are sequenced to match the historical right-to-left evaluation of
  // the builder arguments.
  payload_.clear();
  if (quic::version_family(version_) == quic::VersionFamily::kGquic) {
    const std::size_t payload_size = 100 + rng_.uniform(300);
    const std::uint64_t packet_number = 1 + rng_.uniform(500);
    std::array<std::uint8_t, 8> cid_bytes;
    rng_.fill(cid_bytes);
    quic::build_gquic_server_response_into(payload_,
                                           quic::ConnectionId(cid_bytes),
                                           packet_number, payload_size, rng_);
  } else if (rng_.bernoulli(0.5)) {
    quic::build_server_handshake_ping_into(payload_, ctx_, rng_, fidelity_,
                                           scratch_);
  } else {
    const std::size_t crypto_bytes = 100 + rng_.uniform(200);
    quic::build_server_handshake_into(payload_, ctx_, rng_, fidelity_,
                                      scratch_, crypto_bytes);
  }
  header_ = ip_header(source_, target_, rng_);
  set_staged(time_, net::udp_size(payload_.size()));
  time_ += gap_ + util::Duration{static_cast<std::int64_t>(rng_.uniform(
                      static_cast<std::uint64_t>(gap_.count()) + 1))};
  return true;
}

void MisconfigEmitter::emit(std::span<std::uint8_t> out) {
  net::write_udp(out, header_, kQuicPort, target_port_, payload_.view());
}

}  // namespace quicsand::telescope
