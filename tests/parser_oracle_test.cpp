// Differential oracles for the allocation-free classify path.
//
//  * ReferenceParsers: net::decode_ipv4, quic::parse_long_header and
//    quic::parse_gquic_packet, which read at fixed offsets after
//    explicit length checks, against the ByteReader-based parsers they
//    replaced (reference_parsers.*), field by field and ParseError
//    included. Each runs on over 100k random, mutated, truncated and
//    generator-built inputs, plus the committed fuzz corpus.
//  * ClassifierOracle: Classifier::classify's QUIC fields against a fold
//    over dissect_udp_payload(...).packets, on the DissectorFuzz inputs;
//    and every record field and ClassifierStats counter against a
//    reference classifier over the ByteReader parsers with a walk of its
//    own (reference_parsers.*), on generated backscatter, QUIC-scan and
//    QUIC-flood mixes, the DissectorFuzz inputs and the fuzz corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "asdb/registry.hpp"
#include "core/classifier.hpp"
#include "dissector_fuzz_inputs.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/mutator.hpp"
#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/record_batch.hpp"
#include "quic/dissector.hpp"
#include "quic/gquic.hpp"
#include "quic/header.hpp"
#include "quic/retry.hpp"
#include "reference_parsers.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand {
namespace {

using Bytes = std::vector<std::uint8_t>;

bool same_span(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b) {
  return a.size() == b.size() && (a.empty() || a.data() == b.data());
}

// --- Inputs -------------------------------------------------------------

/// Every other datagram of a small generated day (about 47,000):
/// research passes, botnet scans, QUIC, TCP and ICMP floods,
/// misconfigured hosts.
const std::vector<Bytes>& generated_datagrams() {
  static const std::vector<Bytes> datagrams = [] {
    auto config = telescope::ScenarioConfig::april2021(1, 7117);
    config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
    config.tum.passes_per_day = 2;
    config.rwth.passes_per_day = 2;
    config.attacks.quic_attacks_per_day = 60;
    config.attacks.common_attacks_per_day = 1;
    config.botnet.sessions_per_day = 200;
    config.misconfig.sessions_per_day = 200;
    const auto registry = asdb::AsRegistry::synthetic({}, 2021);
    const auto deployment =
        scanner::Deployment::synthetic(registry, {}, 2021);
    telescope::TelescopeGenerator generator(config, registry, deployment);
    std::vector<Bytes> out;
    std::size_t index = 0;
    generator.generate([&](const net::RawPacket& packet) {
      if (index++ % 2 == 0) out.push_back(packet.data);
    });
    return out;
  }();
  return datagrams;
}

/// The UDP payloads of generated_datagrams().
std::vector<Bytes> generated_udp_payloads() {
  std::vector<Bytes> out;
  for (const auto& datagram : generated_datagrams()) {
    const auto decoded = net::decode_ipv4(datagram);
    if (decoded && decoded->is_udp()) {
      const auto payload = decoded->udp().payload;
      out.emplace_back(payload.begin(), payload.end());
    }
  }
  return out;
}

/// The committed fuzz corpus of one target.
std::vector<Bytes> corpus(const std::string& target) {
  std::vector<Bytes> out;
  for (auto& entry :
       fuzz::load_corpus_dir(std::string(QUICSAND_CORPUS_DIR) + "/" + target)) {
    out.push_back(std::move(entry.data));
  }
  return out;
}

/// Calls `check` on each seed and on four inputs derived from it: a
/// fuzz-mutator mutation, a few bytes of its first 64 overwritten, a
/// random-length prefix, and the seed with junk appended (a capture
/// longer than its datagram).
template <typename Check>
void for_each_derived(const std::vector<Bytes>& seeds, std::uint64_t seed,
                      Check&& check) {
  util::Rng rng(seed);
  fuzz::Mutator mutator(rng.fork(1), {.max_size = 2048, .max_stacked = 4});
  Bytes input;
  for (const auto& base : seeds) {
    check(base);

    input = base;
    mutator.mutate(input);
    check(input);

    input = base;
    if (!input.empty()) {
      const int hits = 1 + static_cast<int>(rng.uniform(3));
      for (int i = 0; i < hits; ++i) {
        const auto at = rng.uniform(std::min<std::size_t>(input.size(), 64));
        input[at] = static_cast<std::uint8_t>(rng.next());
      }
    }
    check(input);

    check(std::span<const std::uint8_t>(base).first(
        rng.uniform(base.size() + 1)));

    input = base;
    const auto junk = rng.bytes(1 + rng.uniform(64));
    input.insert(input.end(), junk.begin(), junk.end());
    check(input);
  }
}

/// Random strings whose first byte is drawn from `firsts` half the time.
std::vector<Bytes> random_inputs(std::size_t count, std::size_t max_size,
                                 std::span<const std::uint8_t> firsts,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Bytes> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto bytes = rng.bytes(rng.uniform(max_size + 1));
    if (!bytes.empty() && rng.bernoulli(0.5)) {
      bytes[0] = firsts[rng.uniform(firsts.size())];
    }
    out.push_back(std::move(bytes));
  }
  return out;
}

// --- decode_ipv4 vs the reference ---------------------------------------

/// Name of the first field where the two decoders differ, "" if none.
std::string ipv4_mismatch(std::span<const std::uint8_t> data) {
  const auto got = net::decode_ipv4(data);
  const auto want = reference::decode_ipv4(data);
  if (got.has_value() != want.has_value()) return "accepted";
  if (!got) return "";
  if (got->src() != want->ip.src) return "ip.src";
  if (got->dst() != want->ip.dst) return "ip.dst";
  if (got->protocol() != want->ip.protocol) return "ip.protocol";
  if (got->ttl() != want->ip.ttl) return "ip.ttl";
  if (got->identification() != want->ip.identification) {
    return "ip.identification";
  }
  if (got->total_length() != want->ip.total_length) return "ip.total_length";
  if (got->is_udp() != std::holds_alternative<net::UdpInfo>(want->l4) ||
      got->is_tcp() != std::holds_alternative<net::TcpInfo>(want->l4) ||
      got->is_icmp() != std::holds_alternative<net::IcmpInfo>(want->l4)) {
    return "l4 kind";
  }
  if (got->is_udp()) {
    const auto a = got->udp();
    const auto& b = std::get<net::UdpInfo>(want->l4);
    if (a.src_port != b.src_port || a.dst_port != b.dst_port) {
      return "udp ports";
    }
    if (!same_span(a.payload, b.payload)) return "udp payload";
  } else if (got->is_tcp()) {
    const auto a = got->tcp();
    const auto& b = std::get<net::TcpInfo>(want->l4);
    if (a.src_port != b.src_port || a.dst_port != b.dst_port) {
      return "tcp ports";
    }
    if (a.seq != b.seq || a.ack != b.ack) return "tcp seq/ack";
    if (a.flags != b.flags) return "tcp flags";
    if (!same_span(a.payload, b.payload)) return "tcp payload";
  } else {
    const auto a = got->icmp();
    const auto& b = std::get<net::IcmpInfo>(want->l4);
    if (a.type != b.type || a.code != b.code) return "icmp type/code";
    if (!same_span(a.payload, b.payload)) return "icmp payload";
  }
  return "";
}

TEST(ReferenceParsers, DecodeIpv4MatchesReference) {
  std::size_t checked = 0;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  auto check = [&](std::span<const std::uint8_t> input) {
    ++checked;
    if (net::decode_ipv4(input)) ++accepted;
    const auto field = ipv4_mismatch(input);
    if (!field.empty() && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch, " << field << ", for "
                    << util::to_hex(input);
    }
  };
  for_each_derived(generated_datagrams(), 101, check);
  for (const auto& seed : corpus("net_headers")) check(seed);
  // Every IHL and version nibble, around the 20-byte minimum and up.
  std::vector<std::uint8_t> firsts;
  for (int ihl = 0; ihl < 16; ++ihl) {
    firsts.push_back(static_cast<std::uint8_t>(0x40 | ihl));
  }
  firsts.push_back(0x65);
  for (const auto& input : random_inputs(20000, 96, firsts, 103)) {
    check(input);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(checked, 100000u);
  // Both verdicts are well represented.
  EXPECT_GT(accepted, checked / 5);
  EXPECT_LT(accepted, checked * 4 / 5);
}

// --- parse_long_header vs the reference ---------------------------------

/// Name of the first field where the two parsers differ at `offset`,
/// "" if none. `next` receives the end of the packet both parsed (0 if
/// they rejected it).
std::string long_header_mismatch(std::span<const std::uint8_t> data,
                                 std::size_t offset, std::size_t* next) {
  // An out-of-range sentinel: a failed parse must set the error.
  constexpr auto kUnset = static_cast<quic::ParseError>(-1);
  quic::ParseError got_error = kUnset;
  quic::ParseError want_error = kUnset;
  const auto got = quic::parse_long_header(data, offset, &got_error);
  const auto want = reference::parse_long_header(data, offset, &want_error);
  *next = 0;
  if (got.has_value() != want.has_value()) return "accepted";
  if (!got) {
    if (got_error == kUnset) return "error not set";
    return got_error == want_error ? "" : "error";
  }
  if (got->type != want->type) return "type";
  if (got->version != want->version) return "version";
  if (!std::ranges::equal(got->dcid, want->dcid.bytes())) return "dcid";
  if (!std::ranges::equal(got->scid, want->scid.bytes())) return "scid";
  if (got->token_length != want->token_length) return "token_length";
  if (got->length != want->length) return "length";
  if (got->packet_start != want->packet_start) return "packet_start";
  if (got->pn_offset != want->pn_offset) return "pn_offset";
  if (got->packet_end != want->packet_end) return "packet_end";
  if (!same_span(got->token, want->token)) return "token";
  if (!same_span(got->retry_token, want->retry_token)) return "retry_token";
  if (got->supported_versions.size() != want->supported_versions.size()) {
    return "supported_versions.size";
  }
  for (std::size_t i = 0; i < want->supported_versions.size(); ++i) {
    if (got->supported_versions[i] != want->supported_versions[i]) {
      return "supported_versions[" + std::to_string(i) + "]";
    }
  }
  *next = want->packet_end;
  return "";
}

/// Handcrafted long headers the generator never emits: Version
/// Negotiation lists of 1..64 entries, Retry packets, both with CIDs
/// from empty to 20 bytes.
std::vector<Bytes> crafted_long_headers() {
  util::Rng rng(107);
  std::vector<Bytes> out;
  for (std::size_t cid = 0; cid <= quic::ConnectionId::kMaxSize; ++cid) {
    const quic::ConnectionId dcid(rng.bytes(cid));
    const quic::ConnectionId scid(rng.bytes(quic::ConnectionId::kMaxSize - cid));
    util::ByteWriter vn;
    vn.write_u8(0x80 | static_cast<std::uint8_t>(rng.uniform(128)));
    vn.write_u32(0);
    vn.write_u8(static_cast<std::uint8_t>(dcid.size()));
    vn.write_bytes(dcid.bytes());
    vn.write_u8(static_cast<std::uint8_t>(scid.size()));
    vn.write_bytes(scid.bytes());
    for (std::size_t v = 0; v < 1 + cid * 3; ++v) {
      vn.write_u32(static_cast<std::uint32_t>(rng.next()));
    }
    out.push_back(vn.take());
    const auto token = rng.bytes(1 + rng.uniform(40));
    const quic::ConnectionId odcid(rng.bytes(8));
    out.push_back(quic::build_retry_packet(1, dcid, scid, token, odcid));
  }
  return out;
}

TEST(ReferenceParsers, ParseLongHeaderMatchesReference) {
  util::Rng rng(127);
  std::size_t checked = 0;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  auto compare_at = [&](std::span<const std::uint8_t> input,
                        std::size_t offset) {
    std::size_t next = 0;
    const auto field = long_header_mismatch(input, offset, &next);
    if (!field.empty() && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch, " << field << ", at offset " << offset
                    << " of " << util::to_hex(input);
    }
    return next;
  };
  auto check = [&](std::span<const std::uint8_t> input) {
    ++checked;
    // Follow the coalesced packets from offset 0 the way the dissector
    // does, then try one arbitrary offset (past the end included).
    std::size_t offset = 0;
    for (int packets = 0; packets < 300; ++packets) {
      const std::size_t next = compare_at(input, offset);
      if (next == 0) break;
      ++accepted;
      if (next >= input.size()) break;
      offset = next;
    }
    compare_at(input, rng.uniform(input.size() + 2));
  };

  // Seeds: every generated UDP payload and the crafted packets.
  auto seeds = generated_udp_payloads();
  for (auto& packet : crafted_long_headers()) seeds.push_back(std::move(packet));
  for_each_derived(seeds, 109, check);
  for (const auto* target : {"quic_header", "quic_dissect"}) {
    for (const auto& seed : corpus(target)) check(seed);
  }
  // Long-header first bytes of every type, fixed bit set and clear.
  std::vector<std::uint8_t> firsts;
  for (int type = 0; type < 4; ++type) {
    firsts.push_back(static_cast<std::uint8_t>(0xc0 | (type << 4)));
    firsts.push_back(static_cast<std::uint8_t>(0x80 | (type << 4)));
  }
  for (const auto& input : random_inputs(50000, 80, firsts, 113)) {
    check(input);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(checked, 100000u);
  EXPECT_GT(accepted, checked / 10);
}

// --- parse_gquic_packet vs the reference --------------------------------

/// Name of the first field where the two parsers differ, "" if none.
std::string gquic_mismatch(std::span<const std::uint8_t> data) {
  const auto got = quic::parse_gquic_packet(data);
  const auto want = reference::parse_gquic_packet(data);
  if (got.has_value() != want.has_value()) return "accepted";
  if (!got) return "";
  if (got->version != want->version) return "version";
  if (got->has_version != want->has_version) return "has_version";
  if (got->is_reset != want->is_reset) return "is_reset";
  if (!same_span(got->connection_id, want->connection_id)) {
    return "connection_id";
  }
  if (got->packet_number_length != want->packet_number_length) {
    return "packet_number_length";
  }
  if (got->packet_number != want->packet_number) return "packet_number";
  if (got->header_size != want->header_size) return "header_size";
  if (got->payload_size != want->payload_size) return "payload_size";
  return "";
}

/// Handcrafted Q043 public headers: data packets with every packet
/// number length, with and without a version and with payloads around
/// the 12-byte minimum, each also as a public reset, plus one with a
/// version that does not start with 'Q'. Every one is also cut at every
/// length.
std::vector<Bytes> crafted_gquic_headers() {
  util::Rng rng(131);
  std::vector<Bytes> whole;
  for (const std::uint64_t pn :
       {0x12ULL, 0x1234ULL, 0x123456ULL, 0x123456789aULL}) {
    for (const std::uint32_t version : {0u, 0x51303433u, 0x51303530u}) {
      for (const std::size_t payload : {0u, 11u, 12u, 40u}) {
        const quic::ConnectionId cid(rng.bytes(8));
        auto packet =
            quic::build_gquic_packet(cid, version, pn, rng.bytes(payload));
        auto reset = packet;
        reset[0] |= quic::GquicPublicFlags::kReset;
        whole.push_back(std::move(packet));
        whole.push_back(std::move(reset));
      }
    }
  }
  auto not_q = quic::build_gquic_packet(quic::ConnectionId(rng.bytes(8)),
                                        0x51303433, 1, rng.bytes(20));
  not_q[9] = 'T';
  whole.push_back(std::move(not_q));
  std::vector<Bytes> out;
  for (const auto& packet : whole) {
    for (auto end = packet.begin(); end != packet.end(); ++end) {
      out.emplace_back(packet.begin(), end);
    }
    out.push_back(packet);
  }
  return out;
}

TEST(ReferenceParsers, ParseGquicPacketMatchesReference) {
  std::size_t checked = 0;
  std::size_t accepted = 0;
  std::size_t mismatches = 0;
  auto check = [&](std::span<const std::uint8_t> input) {
    ++checked;
    if (quic::parse_gquic_packet(input)) ++accepted;
    const auto field = gquic_mismatch(input);
    if (!field.empty() && mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch, " << field << ", for "
                    << util::to_hex(input);
    }
  };
  auto seeds = generated_udp_payloads();
  for (auto& header : crafted_gquic_headers()) {
    seeds.push_back(std::move(header));
  }
  for_each_derived(seeds, 137, check);
  for (const auto& seed : corpus("quic_dissect")) check(seed);
  // Public-header flag bytes with the connection-ID bit set.
  std::vector<std::uint8_t> firsts;
  for (int flags = 0; flags < 0x80; ++flags) {
    if (flags & quic::GquicPublicFlags::kConnectionId) {
      firsts.push_back(static_cast<std::uint8_t>(flags));
    }
  }
  for (const auto& input : random_inputs(50000, 48, firsts, 139)) {
    check(input);
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(checked, 100000u);
  EXPECT_GT(accepted, checked / 20);
}

// --- Classifier fold vs dissect_udp_payload ---------------------------

/// The classifier's QUIC fields, recomputed from the collected packet
/// list: counts saturate at 255, the first non-short version, the hash
/// of the first non-empty SCID.
core::PacketRecord fold_dissection(std::span<const std::uint8_t> payload) {
  core::PacketRecord fold;
  for (const auto& packet : quic::dissect_udp_payload(payload).packets) {
    auto& kind = fold.kind_counts[static_cast<std::size_t>(packet.kind)];
    if (kind < 255) ++kind;
    if (fold.quic_packet_count < 255) ++fold.quic_packet_count;
    if (fold.quic_version == 0 && packet.kind != quic::QuicPacketKind::kShort) {
      fold.quic_version = packet.version;
    }
    if (!fold.has_scid && !packet.scid.empty()) {
      fold.has_scid = true;
      fold.scid_hash = packet.scid.hash();
    }
  }
  return fold;
}

/// Classify each payload as a response (from port 443) and as a request
/// (to port 443) and compare the QUIC fields with the fold.
void expect_classifier_folds_dissection(const std::vector<Bytes>& payloads) {
  core::Classifier classifier({});
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 1, 1);
  ip.dst = net::Ipv4Address::from_octets(44, 1, 2, 3);
  std::uint64_t rejected = 0;
  for (const auto& payload : payloads) {
    const auto want = fold_dissection(payload);
    const bool is_quic = quic::dissect_udp_payload(payload).is_quic;
    if (!is_quic) rejected += 2;
    for (const bool response : {true, false}) {
      const auto datagram = response ? net::build_udp(ip, 443, 40000, payload)
                                     : net::build_udp(ip, 55555, 443, payload);
      const auto got = classifier.classify(util::Timestamp{}, datagram);
      ASSERT_TRUE(got.has_value());
      const auto cls = !is_quic   ? core::TrafficClass::kOther
                       : response ? core::TrafficClass::kQuicResponse
                                  : core::TrafficClass::kQuicRequest;
      ASSERT_EQ(got->cls, cls) << util::to_hex(payload);
      ASSERT_EQ(got->quic_packet_count, want.quic_packet_count)
          << util::to_hex(payload);
      ASSERT_EQ(got->kind_counts, want.kind_counts) << util::to_hex(payload);
      ASSERT_EQ(got->quic_version, want.quic_version) << util::to_hex(payload);
      ASSERT_EQ(got->has_scid, want.has_scid) << util::to_hex(payload);
      ASSERT_EQ(got->scid_hash, want.scid_hash) << util::to_hex(payload);
    }
  }
  EXPECT_EQ(classifier.stats().quic_port_rejects, rejected);
}

TEST(ClassifierOracle, FoldMatchesDissectionOnRandomBytes) {
  expect_classifier_folds_dissection(quic::fuzz_inputs::random_payloads());
}

TEST(ClassifierOracle, FoldMatchesDissectionOnMutatedInitials) {
  expect_classifier_folds_dissection(quic::fuzz_inputs::mutated_initials());
}

TEST(ClassifierOracle, FoldMatchesDissectionOnTruncationSweep) {
  expect_classifier_folds_dissection(quic::fuzz_inputs::truncation_sweep());
}

// --- Classifier vs the reference classifier ----------------------------

/// About 50k datagrams of one of perfbench's streams (one in `stride` of
/// its first `packets`), each with its timestamp: light backscatter,
/// a research-heavy QUIC scan and a QUIC flood, /16, seed 1.
std::vector<net::RawPacket> generated_mix(
    const telescope::ScenarioConfig& config, std::size_t packets,
    std::size_t stride) {
  const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, 2021);
  telescope::TelescopeGenerator generator(config, registry, deployment);
  net::RecordBatch batch;
  std::vector<net::RawPacket> out;
  std::size_t seen = 0;
  while (seen < packets && generator.next_batch(batch) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i, ++seen) {
      if (seen % stride == 0) out.emplace_back(batch.view(i));
    }
  }
  return out;
}

telescope::ScenarioConfig mix_day(int tum_rwth_passes, int quic_attacks,
                                  int common_attacks) {
  auto config = telescope::ScenarioConfig::april2021(1, 1);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 16};
  auto& attacks = config.attacks;
  for (double* sigma :
       {&attacks.quic_duration_sigma, &attacks.quic_peak_pps_sigma,
        &attacks.common_duration_sigma, &attacks.common_peak_pps_sigma}) {
    *sigma = 0.5;
  }
  config.tum.passes_per_day = tum_rwth_passes;
  config.rwth.passes_per_day = tum_rwth_passes;
  if (quic_attacks > 0) config.attacks.quic_attacks_per_day = quic_attacks;
  config.attacks.common_attacks_per_day = common_attacks;
  return config;
}

/// The TUM and RWTH scanner prefixes, as the pipeline flags them.
core::ClassifierConfig research_config() {
  const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  core::ClassifierConfig config;
  for (const auto asn :
       {asdb::AsRegistry::kTumScanner, asdb::AsRegistry::kRwthScanner}) {
    config.research_prefixes.push_back(registry.prefixes_of(asn).front());
  }
  return config;
}

/// Name of the first record field where the two classifiers differ, ""
/// if none.
std::string record_mismatch(const std::optional<core::PacketRecord>& got,
                            const std::optional<core::PacketRecord>& want) {
  if (got.has_value() != want.has_value()) return "decodable";
  if (!got) return "";
  const auto& a = *got;
  const auto& b = *want;
  if (a.timestamp != b.timestamp) return "timestamp";
  if (a.src != b.src) return "src";
  if (a.dst != b.dst) return "dst";
  if (a.src_port != b.src_port) return "src_port";
  if (a.dst_port != b.dst_port) return "dst_port";
  if (a.wire_size != b.wire_size) return "wire_size";
  if (a.cls != b.cls) return "cls";
  if (a.is_research != b.is_research) return "is_research";
  if (a.quic_version != b.quic_version) return "quic_version";
  if (a.quic_packet_count != b.quic_packet_count) return "quic_packet_count";
  if (a.kind_counts != b.kind_counts) return "kind_counts";
  if (a.has_scid != b.has_scid) return "has_scid";
  if (a.scid_hash != b.scid_hash) return "scid_hash";
  return a == b ? "" : "record";
}

/// Classifies every datagram with both classifiers, expecting the same
/// records and the same counters.
class RecordOracle {
 public:
  RecordOracle() : got_(research_config()), want_(research_config()) {}

  void check(util::Timestamp timestamp, std::span<const std::uint8_t> data) {
    const auto got = got_.classify(timestamp, data);
    const auto want = want_.classify(timestamp, data);
    if (want && want->is_quic()) ++quic_;
    const auto field = record_mismatch(got, want);
    if (!field.empty() && mismatches_++ == 0) {
      ADD_FAILURE() << "first mismatch, " << field << ", for "
                    << util::to_hex(data);
    }
  }

  /// `payload` as a UDP datagram from and to port 443.
  void check_payload(std::span<const std::uint8_t> payload) {
    net::Ipv4Header ip;
    ip.src = net::Ipv4Address::from_octets(142, 250, 1, 1);
    ip.dst = net::Ipv4Address::from_octets(44, 1, 2, 3);
    check(util::Timestamp{}, net::build_udp(ip, 443, 40000, payload));
    check(util::Timestamp{}, net::build_udp(ip, 55555, 443, payload));
  }

  void expect_same_stats() const {
    const auto& a = got_.stats();
    const auto& b = want_.stats();
    EXPECT_EQ(mismatches_, 0u);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.undecodable, b.undecodable);
    EXPECT_EQ(a.by_class, b.by_class);
    EXPECT_EQ(a.research, b.research);
    EXPECT_EQ(a.research_requests, b.research_requests);
    EXPECT_EQ(a.quic_port_rejects, b.quic_port_rejects);
    EXPECT_EQ(a.kept, b.kept);
  }

  [[nodiscard]] const core::ClassifierStats& stats() const {
    return want_.stats();
  }
  [[nodiscard]] std::uint64_t quic() const { return quic_; }

 private:
  core::Classifier got_;
  reference::Classifier want_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t quic_ = 0;
};

/// A datagram of `count` coalesced minimal Handshake packets, each with a
/// distinct 8-byte SCID: past 255, the 8-bit counts saturate.
Bytes coalesced_handshakes(std::size_t count) {
  util::Rng rng(149);
  util::ByteWriter w;
  for (std::size_t i = 0; i < count; ++i) {
    w.write_u8(0xe0);
    w.write_u32(1);
    w.write_u8(0);  // empty DCID
    w.write_u8(8);
    w.write_bytes(rng.bytes(8));
    w.write_u8(20);  // Length
    w.write_bytes(rng.bytes(20));
  }
  return w.take();
}

TEST(ClassifierOracle, RecordsMatchReferenceOnGeneratedStreams) {
  RecordOracle oracle;
  struct Stream {
    const char* name;
    telescope::ScenarioConfig config;
    std::size_t packets;
    std::size_t stride;
  };
  const Stream streams[] = {
      {"backscatter", mix_day(0, 0, 2400), 500000, 10},
      {"quicscan", mix_day(3, 0, 30), 450000, 9},
      {"quicflood", mix_day(0, 3000, 60), 300000, 6},
  };
  std::uint64_t generated = 0;
  for (const auto& stream : streams) {
    SCOPED_TRACE(stream.name);
    const auto mix =
        generated_mix(stream.config, stream.packets, stream.stride);
    EXPECT_GE(mix.size(), 45000u);
    for (const auto& packet : mix) oracle.check(packet.timestamp, packet.data);
    generated += mix.size();
  }
  // The mixes cover QUIC both ways, TCP and ICMP backscatter, and the
  // research scans.
  const auto& stats = oracle.stats();
  for (const auto cls :
       {core::TrafficClass::kQuicRequest, core::TrafficClass::kQuicResponse,
        core::TrafficClass::kTcpBackscatter,
        core::TrafficClass::kIcmpBackscatter}) {
    EXPECT_GT(stats.of(cls), 1000u) << core::traffic_class_name(cls);
  }
  EXPECT_GT(stats.research_requests, 10000u);

  // Ragged inputs: the DissectorFuzz payloads, the committed corpora,
  // and 256 and 300 coalesced packets.
  for (auto* inputs : {&quic::fuzz_inputs::random_payloads,
                       &quic::fuzz_inputs::mutated_initials,
                       &quic::fuzz_inputs::truncation_sweep}) {
    for (const auto& payload : inputs()) oracle.check_payload(payload);
  }
  for (const auto* target : {"quic_dissect", "quic_header"}) {
    for (const auto& payload : corpus(target)) oracle.check_payload(payload);
  }
  for_each_derived(corpus("net_headers"), 151,
                   [&](std::span<const std::uint8_t> datagram) {
                     oracle.check(util::Timestamp{}, datagram);
                   });
  for (const std::size_t count : {256u, 300u}) {
    oracle.check_payload(coalesced_handshakes(count));
  }

  oracle.expect_same_stats();
  EXPECT_GE(generated, 140000u);
  EXPECT_GT(oracle.quic(), 60000u);
  EXPECT_GT(stats.quic_port_rejects, 0u);
  EXPECT_GT(stats.undecodable, 0u);
}

}  // namespace
}  // namespace quicsand
