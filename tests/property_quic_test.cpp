// Property and fuzz tests for the QUIC codec layer: seal/open across all
// version generations and packet-number lengths, exhaustive varint
// sweeps, and dissector robustness on random and mutated inputs.
#include <gtest/gtest.h>

#include "dissector_fuzz_inputs.hpp"
#include "quic/dissector.hpp"
#include "quic/initial_aead.hpp"
#include "quic/packets.hpp"
#include "quic/retry.hpp"
#include "quic/varint.hpp"
#include "util/rng.hpp"

namespace quicsand::quic {
namespace {

struct SealParam {
  std::uint32_t version;
  int pn_length;
  PacketType type;
};

class SealOpenMatrixTest : public ::testing::TestWithParam<SealParam> {};

TEST_P(SealOpenMatrixTest, RoundTrips) {
  const auto& param = GetParam();
  util::Rng rng(util::mix64(param.version, param.pn_length));
  const auto ctx = HandshakeContext::random(param.version, rng);
  const auto keys =
      param.type == PacketType::kInitial
          ? derive_initial_keys(param.version, ctx.client_dcid,
                                Perspective::kClient)
          : derive_handshake_keys_simulated(param.version, ctx.client_dcid,
                                            Perspective::kServer);
  LongHeader hdr;
  hdr.type = param.type;
  hdr.version = param.version;
  hdr.dcid = ctx.client_dcid;
  hdr.scid = ctx.client_scid;
  hdr.packet_number = rng.uniform(1ULL << (8 * param.pn_length - 1));
  hdr.packet_number_length = param.pn_length;
  const auto payload = rng.bytes(50 + rng.uniform(400));
  const auto packet = seal_long_header_packet(keys, hdr, payload);
  const auto view = parse_long_header(packet, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->version, param.version);
  const auto opened = open_long_header_packet(keys, packet, *view);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->packet_number, hdr.packet_number);
  EXPECT_EQ(opened->payload, payload);
}

std::vector<SealParam> seal_matrix() {
  std::vector<SealParam> params;
  for (const std::uint32_t version :
       {0x00000001u, 0xff00001du, 0xff00001bu, 0xfaceb002u}) {
    for (int pn = 1; pn <= 4; ++pn) {
      params.push_back({version, pn, PacketType::kInitial});
      params.push_back({version, pn, PacketType::kHandshake});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, SealOpenMatrixTest, ::testing::ValuesIn(seal_matrix()),
    [](const auto& info) {
      std::string name = version_name(info.param.version) + "_pn" +
                         std::to_string(info.param.pn_length) + "_" +
                         packet_type_name(info.param.type);
      // gtest parameter names must be alphanumeric.
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(VarintProperty, ExhaustiveTwoByteRange) {
  for (std::uint64_t v = 0; v < (1u << 14); ++v) {
    util::ByteWriter w;
    write_varint(w, v);
    util::ByteReader r(w.view());
    ASSERT_EQ(read_varint(r), v) << v;
    ASSERT_TRUE(r.empty());
  }
}

TEST(VarintProperty, RandomNonMinimalEncodingsDecode) {
  util::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t v = rng.next() & kVarintMax;
    const std::size_t minimal = varint_size(v);
    for (std::size_t size : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
      if (size < minimal) continue;
      util::ByteWriter w;
      write_varint_with_size(w, v, size);
      ASSERT_EQ(w.size(), size);
      util::ByteReader r(w.view());
      ASSERT_EQ(read_varint(r), v);
    }
  }
}

TEST(DissectorFuzz, RandomBytesNeverThrow) {
  for (const auto& payload : fuzz_inputs::random_payloads()) {
    DissectResult result;
    ASSERT_NO_THROW(result = dissect_udp_payload(payload));
    // Whatever the verdict, it must be internally consistent.
    if (result.is_quic) {
      ASSERT_FALSE(result.packets.empty());
      std::size_t total = 0;
      for (const auto& pkt : result.packets) total += pkt.size;
      EXPECT_LE(total, payload.size());
    } else {
      EXPECT_FALSE(result.reject_reason.empty());
    }
  }
}

TEST(DissectorFuzz, MutatedValidPacketsNeverThrow) {
  DissectOptions deep;
  deep.decrypt_initials = true;
  for (const auto& mutated : fuzz_inputs::mutated_initials()) {
    ASSERT_NO_THROW((void)dissect_udp_payload(mutated, deep));
  }
}

TEST(DissectorFuzz, TruncationSweepNeverThrows) {
  for (const auto& prefix : fuzz_inputs::truncation_sweep()) {
    ASSERT_NO_THROW((void)dissect_udp_payload(prefix));
  }
}

TEST(RetryFuzz, RandomTokensNeverValidate) {
  util::Rng rng(19);
  RetryTokenMinter minter(rng.bytes(32));
  const auto client = net::Ipv4Address::from_octets(198, 51, 100, 1);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto junk = rng.bytes(rng.uniform(80));
    EXPECT_FALSE(
        minter.validate(junk, client, 443, util::kApril2021Start)
            .has_value());
  }
}

TEST(RetryFuzz, MutatedRetryPacketsFailIntegrity) {
  util::Rng rng(23);
  const auto odcid = ConnectionId(rng.bytes(8));
  const auto packet =
      build_retry_packet(1, ConnectionId(rng.bytes(8)),
                         ConnectionId(rng.bytes(8)), rng.bytes(24), odcid);
  ASSERT_TRUE(verify_retry_integrity(1, packet, odcid));
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = packet;
    const auto bit = rng.uniform(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(verify_retry_integrity(1, mutated, odcid));
  }
}

class PaddingTargetTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaddingTargetTest, ClientInitialHitsExactTarget) {
  util::Rng rng(29);
  for (const auto fidelity :
       {CryptoFidelity::kFull, CryptoFidelity::kFast}) {
    const auto ctx = HandshakeContext::random(1, rng);
    const auto datagram = build_client_initial(ctx, "pad.example", rng,
                                               fidelity, {}, GetParam());
    EXPECT_EQ(datagram.size(), GetParam());
    const auto result = dissect_udp_payload(datagram);
    ASSERT_TRUE(result.is_quic);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PaddingTargetTest,
                         ::testing::Values(1200, 1252, 1350, 1500));

TEST(CoalescingProperty, UpToThreePacketsDissect) {
  util::Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const auto ctx = HandshakeContext::random(1, rng);
    auto datagram =
        build_server_initial_handshake(ctx, rng, CryptoFidelity::kFast);
    const auto extra = build_server_handshake_ping(ctx, rng,
                                                   CryptoFidelity::kFast);
    datagram.insert(datagram.end(), extra.begin(), extra.end());
    const auto result = dissect_udp_payload(datagram);
    ASSERT_TRUE(result.is_quic) << result.reject_reason;
    ASSERT_EQ(result.packets.size(), 3u);
    std::size_t total = 0;
    for (const auto& pkt : result.packets) total += pkt.size;
    EXPECT_EQ(total, datagram.size());
  }
}

}  // namespace
}  // namespace quicsand::quic
