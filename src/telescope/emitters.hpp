// Packet emitters: time-ordered sources of telescope traffic.
//
// Each emitter models one traffic phenomenon and yields complete raw
// IPv4 datagrams with non-decreasing timestamps. The generator builds and
// primes every emitter of the scenario up front (one per attack, botnet
// session, misconfigured host and research scanner) and merges them
// through a heap, so memory grows with the number of planned events and
// each flood's scheduled-but-unsent packets, not with the stream's
// length. Each emitter keeps only the scenario fields it reads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "quic/packets.hpp"
#include "quic/stateless_reset.hpp"
#include "scanner/zmap.hpp"
#include "telescope/ground_truth.hpp"
#include "telescope/scenario.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand::telescope {

/// Two-step production, so that each packet is written once, straight
/// into its final buffer (the generator's batch arena):
///   stage() draws the next packet: every RNG draw it needs, in a fixed
///     order, and its timestamp and wire size; it writes no packet bytes.
///   emit(out) serializes the staged packet into exactly staged_size()
///     bytes and draws nothing.
/// Call emit() at most once per successful stage(). A staged packet may
/// be dropped unemitted: the generator drops an emitter whose next packet
/// falls past the window.
class PacketEmitter {
 public:
  virtual ~PacketEmitter() = default;

  /// Stage the next packet in time order; false when drained.
  virtual bool stage() = 0;
  [[nodiscard]] util::Timestamp staged_time() const { return staged_time_; }
  [[nodiscard]] std::size_t staged_size() const { return staged_size_; }
  virtual void emit(std::span<std::uint8_t> out) = 0;

  /// Per-record adapter for tests: stage() and emit() into a fresh
  /// RawPacket.
  std::optional<net::RawPacket> next();

 protected:
  /// Record what stage() drew.
  void set_staged(util::Timestamp time, std::size_t size) {
    staged_time_ = time;
    staged_size_ = size;
  }

 private:
  util::Timestamp staged_time_{};
  std::size_t staged_size_ = 0;
};

/// Internet-wide research scanner (TUM / RWTH model): a sequence of
/// full-pass probes of the telescope, one padded client Initial per
/// address, built from a patched template for throughput.
class ResearchScanEmitter : public PacketEmitter {
 public:
  ResearchScanEmitter(const ScenarioConfig& scenario,
                      const ResearchScannerConfig& scanner_config,
                      net::Ipv4Prefix source_prefix, std::uint64_t seed);

  bool stage() override;
  void emit(std::span<std::uint8_t> out) override;

 private:
  void start_next_pass();

  net::Ipv4Prefix telescope_;
  util::Duration pass_duration_;
  util::Rng rng_;
  std::vector<util::Timestamp> pass_starts_;
  std::size_t pass_index_ = 0;
  std::unique_ptr<scanner::ScanPass> current_pass_;
  std::vector<std::uint8_t> template_packet_;
  net::Ipv4Header template_ip_;  ///< the template's IPv4 header fields
  // The staged probe.
  net::Ipv4Address target_;
  std::uint8_t host_ = 0;    ///< last octet of the scanner host
  std::uint64_t random_ = 0;  ///< IP id (low 16 bits) and DCID bytes
};

/// One botnet scanning session: a burst of client Initials from a single
/// eyeball source to random telescope targets on UDP/443.
class BotnetSessionEmitter : public PacketEmitter {
 public:
  BotnetSessionEmitter(const ScenarioConfig& scenario,
                       net::Ipv4Address source, util::Timestamp start,
                       std::uint64_t packet_count, std::uint64_t seed);

  bool stage() override;
  void emit(std::span<std::uint8_t> out) override;

 private:
  net::Ipv4Prefix telescope_;
  quic::CryptoFidelity fidelity_;
  double gap_rate_;  ///< 1 / mean intra-session gap in seconds
  net::Ipv4Address source_;
  util::Timestamp time_;
  std::uint64_t remaining_;
  util::Rng rng_;
  quic::BuildScratch scratch_;
  util::ByteWriter datagram_;  ///< the staged QUIC payload
  net::Ipv4Header header_;
  std::uint16_t source_port_ = 0;
};

/// Per-implementation handshake flight behaviour (retransmission and
/// probe probabilities, expected datagrams per spoofed connection).
struct FlightProfile {
  double retx1 = 0;  ///< probability of a first PTO retransmission
  double retx2 = 0;  ///< probability of a second, given the first
  double pings = 0;  ///< probability of the keep-alive PING pair
  double reset = 0;  ///< probability of a trailing stateless reset
  double mean_datagrams = 0;
};

/// Flight profile of the server implementation behind `version`.
FlightProfile flight_profile(std::uint32_t version);

/// Backscatter of one QUIC flood: the victim's handshake flights toward
/// spoofed clients that happen to fall inside the telescope.
class QuicBackscatterEmitter : public PacketEmitter {
 public:
  QuicBackscatterEmitter(const ScenarioConfig& scenario,
                         const PlannedAttack& attack, std::uint64_t seed);

  bool stage() override;
  void emit(std::span<std::uint8_t> out) override;

 private:
  /// One datagram of a scheduled flight: its IP/UDP fields and QUIC
  /// payload, wrapped at emit().
  struct Scheduled {
    util::Timestamp time;
    net::Ipv4Header header;
    std::uint16_t client_port = 0;
    std::vector<std::uint8_t> payload;
    bool operator>(const Scheduled& other) const {
      return time > other.time;
    }
  };

  void schedule_connection(util::Timestamp start);
  void refill();
  /// Pop a recycled payload buffer (or an empty one) from the pool.
  std::vector<std::uint8_t> take_spare();

  net::Ipv4Address victim_;
  std::uint32_t quic_version_;
  quic::CryptoFidelity fidelity_;
  util::Rng rng_;
  std::vector<net::Ipv4Address> spoofed_clients_;
  /// The victim's long-lived stateless-reset key (RFC 9000 §10.3).
  std::unique_ptr<quic::StatelessResetter> resetter_;
  FlightProfile profile_;
  double connection_rate_ = 0;  ///< base connections per second
  double burst_rate_ = 0;       ///< rate during the one-minute peak
  util::Timestamp burst_start_{};
  util::Timestamp next_connection_;
  util::Timestamp attack_end_;
  /// Hard per-attack datagram budget (tail-risk backstop).
  std::int64_t budget_ = 60000;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
      pending_;
  quic::BuildScratch scratch_;
  /// The QUIC datagram under construction, on a recycled buffer.
  util::ByteWriter payload_builder_;
  Scheduled staged_;
  /// Payload buffers emit() is done with, reused by schedule_connection().
  std::vector<std::vector<std::uint8_t>> spare_;
};

/// Backscatter of one TCP or ICMP flood (SYN-ACK retransmission bursts,
/// or ICMP echo replies).
class CommonBackscatterEmitter : public PacketEmitter {
 public:
  CommonBackscatterEmitter(const ScenarioConfig& scenario,
                           const PlannedAttack& attack, std::uint64_t seed);

  bool stage() override;
  void emit(std::span<std::uint8_t> out) override;

 private:
  struct Scheduled {
    util::Timestamp time;
    net::Ipv4Address client;
    std::uint16_t client_port;
    std::uint32_t seq;
    bool operator>(const Scheduled& other) const {
      return time > other.time;
    }
  };
  enum class Reply : std::uint8_t { kSynAck, kEchoReply, kPortUnreachable };
  /// Payload size of the spoofed UDP probe a port unreachable answers.
  static constexpr std::size_t kProbePayloadSize = 8;

  net::Ipv4Prefix telescope_;
  net::Ipv4Address victim_;
  AttackProtocol protocol_;
  util::Rng rng_;
  std::uint16_t service_port_;
  double connection_rate_;
  util::Timestamp next_connection_;
  util::Timestamp attack_end_;
  /// Hard per-attack datagram budget (tail-risk backstop).
  std::int64_t budget_ = 40000;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
      pending_;
  // The staged reply.
  Scheduled current_{};
  Reply reply_ = Reply::kSynAck;
  net::Ipv4Header header_;
  net::Ipv4Header probe_header_;  ///< the spoofed probe's, for an unreachable
  /// Echo body, or the spoofed probe's payload in its first bytes.
  std::array<std::uint8_t, 28> body_{};
};

/// Low-volume misconfiguration backscatter: a content host dribbling a
/// few QUIC packets at one telescope address (Appendix B's excluded
/// response sessions).
class MisconfigEmitter : public PacketEmitter {
 public:
  MisconfigEmitter(const ScenarioConfig& scenario, net::Ipv4Address source,
                   std::uint32_t version, util::Timestamp start,
                   std::uint64_t packet_count, std::uint64_t seed);

  bool stage() override;
  void emit(std::span<std::uint8_t> out) override;

 private:
  quic::CryptoFidelity fidelity_;
  net::Ipv4Address source_;
  std::uint32_t version_;
  net::Ipv4Address target_;
  std::uint16_t target_port_;
  quic::HandshakeContext ctx_;
  util::Timestamp time_;
  util::Duration gap_;
  std::uint64_t remaining_;
  util::Rng rng_;
  quic::BuildScratch scratch_;
  util::ByteWriter payload_;  ///< the staged QUIC payload
  net::Ipv4Header header_;
};

}  // namespace quicsand::telescope
