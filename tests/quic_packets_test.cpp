#include "quic/packets.hpp"

#include <gtest/gtest.h>

#include "quic/dissector.hpp"
#include "quic/frames.hpp"
#include "quic/initial_aead.hpp"
#include "quic/tls_messages.hpp"
#include "util/rng.hpp"

namespace quicsand::quic {
namespace {

TEST(HandshakeContextTest, RandomHasTypicalCidLengths) {
  util::Rng rng(1);
  const auto ctx = HandshakeContext::random(1, rng);
  EXPECT_EQ(ctx.client_dcid.size(), 8u);
  EXPECT_EQ(ctx.client_scid.size(), 8u);
  EXPECT_EQ(ctx.server_scid.size(), 16u);
  const auto other = HandshakeContext::random(1, rng);
  EXPECT_NE(ctx.client_dcid, other.client_dcid);
}

TEST(ClientInitial, FullFidelityDecryptsToClientHello) {
  util::Rng rng(2);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto datagram = build_client_initial(ctx, "www.facebook.com", rng,
                                             CryptoFidelity::kFull);
  const auto view = parse_long_header(datagram, 0);
  ASSERT_TRUE(view.has_value());
  const auto keys = derive_initial_keys(1, ctx.client_dcid,
                                        Perspective::kClient);
  const auto opened = open_long_header_packet(keys, datagram, *view);
  ASSERT_TRUE(opened.has_value());
  const auto frames = parse_frames(opened->payload);
  ASSERT_TRUE(frames.has_value());
  bool found_ch = false;
  for (const auto& f : *frames) {
    if (const auto* crypto = std::get_if<CryptoFrame>(&f)) {
      const auto info = parse_tls_message(crypto->data);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->type, TlsHandshakeType::kClientHello);
      ASSERT_TRUE(info->sni.has_value());
      EXPECT_EQ(*info->sni, "www.facebook.com");
      found_ch = true;
    }
  }
  EXPECT_TRUE(found_ch);
}

TEST(ClientInitial, PaddedToExactly1200) {
  util::Rng rng(3);
  for (auto fidelity : {CryptoFidelity::kFull, CryptoFidelity::kFast}) {
    const auto ctx = HandshakeContext::random(1, rng);
    EXPECT_EQ(build_client_initial(ctx, "a.example", rng, fidelity).size(),
              1200u);
  }
}

TEST(ClientInitial, CustomPaddingTarget) {
  util::Rng rng(4);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto datagram = build_client_initial(ctx, "a.example", rng,
                                             CryptoFidelity::kFast, {}, 1350);
  EXPECT_EQ(datagram.size(), 1350u);
}

TEST(ClientInitial, CarriesToken) {
  util::Rng rng(5);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto token = rng.bytes(41);
  const auto datagram = build_client_initial(ctx, "a.example", rng,
                                             CryptoFidelity::kFast, token);
  const auto view = parse_long_header(datagram, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->token_length, 41u);
  EXPECT_TRUE(std::equal(token.begin(), token.end(), view->token.begin()));
}

TEST(ServerFlight, InitialPlusHandshakeNear1200Bytes) {
  util::Rng rng(6);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto datagram =
      build_server_initial_handshake(ctx, rng, CryptoFidelity::kFast);
  EXPECT_GT(datagram.size(), 1000u);
  EXPECT_LE(datagram.size(), 1400u);
}

TEST(ServerFlight, FullFidelityHandshakeDecrypts) {
  util::Rng rng(7);
  const auto ctx = HandshakeContext::random(0xff00001d, rng);
  const auto datagram =
      build_server_initial_handshake(ctx, rng, CryptoFidelity::kFull);
  const auto v1 = parse_long_header(datagram, 0);
  ASSERT_TRUE(v1.has_value());
  const auto v2 = parse_long_header(datagram, v1->packet_end);
  ASSERT_TRUE(v2.has_value());
  const auto hkeys = derive_handshake_keys_simulated(
      0xff00001d, ctx.client_dcid, Perspective::kServer);
  const auto opened = open_long_header_packet(hkeys, datagram, *v2);
  ASSERT_TRUE(opened.has_value());
  const auto frames = parse_frames(opened->payload);
  ASSERT_TRUE(frames.has_value());
  EXPECT_TRUE(std::holds_alternative<CryptoFrame>((*frames)[0]));
}

TEST(ServerFlight, InitialDecryptsWithServerKeysFromOriginalDcid) {
  util::Rng rng(8);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto datagram =
      build_server_initial_handshake(ctx, rng, CryptoFidelity::kFull);
  const auto view = parse_long_header(datagram, 0);
  ASSERT_TRUE(view.has_value());
  // Keyed on the ORIGINAL client DCID, not the DCID in this header.
  const auto keys =
      derive_initial_keys(1, ctx.client_dcid, Perspective::kServer);
  const auto opened = open_long_header_packet(keys, datagram, *view);
  ASSERT_TRUE(opened.has_value());
  const auto frames = parse_frames(opened->payload);
  ASSERT_TRUE(frames.has_value());
  // ACK + CRYPTO(ServerHello).
  bool has_ack = false, has_sh = false;
  for (const auto& f : *frames) {
    if (std::holds_alternative<AckFrame>(f)) has_ack = true;
    if (const auto* c = std::get_if<CryptoFrame>(&f)) {
      const auto info = parse_tls_message(c->data);
      has_sh = info && info->type == TlsHandshakeType::kServerHello;
    }
  }
  EXPECT_TRUE(has_ack);
  EXPECT_TRUE(has_sh);
}

TEST(ServerHandshakePing, SmallAndParseable) {
  util::Rng rng(9);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto ping =
      build_server_handshake_ping(ctx, rng, CryptoFidelity::kFull);
  EXPECT_LT(ping.size(), 100u);
  const auto view = parse_long_header(ping, 0);
  ASSERT_TRUE(view.has_value());
  const auto hkeys = derive_handshake_keys_simulated(1, ctx.client_dcid,
                                                     Perspective::kServer);
  const auto opened = open_long_header_packet(hkeys, ping, *view);
  ASSERT_TRUE(opened.has_value());
  const auto frames = parse_frames(opened->payload);
  ASSERT_TRUE(frames.has_value());
  EXPECT_TRUE(std::holds_alternative<PingFrame>((*frames)[0]));
}

TEST(ClientHandshakeFinish, DecryptsWithClientHandshakeKeys) {
  util::Rng rng(10);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto fin =
      build_client_handshake_finish(ctx, rng, CryptoFidelity::kFull);
  const auto view = parse_long_header(fin, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(ConnectionId(view->dcid), ctx.server_scid);
  const auto keys = derive_handshake_keys_simulated(1, ctx.client_dcid,
                                                    Perspective::kClient);
  EXPECT_TRUE(open_long_header_packet(keys, fin, *view).has_value());
}

TEST(FastFidelity, SameWireSizeAsFull) {
  // kFast must be indistinguishable in size/header from kFull so that the
  // telescope statistics are identical across fidelities.
  util::Rng rng_a(11), rng_b(11);
  const auto ctx_a = HandshakeContext::random(1, rng_a);
  const auto ctx_b = HandshakeContext::random(1, rng_b);
  const auto full =
      build_client_initial(ctx_a, "example.org", rng_a, CryptoFidelity::kFull);
  const auto fast =
      build_client_initial(ctx_b, "example.org", rng_b, CryptoFidelity::kFast);
  EXPECT_EQ(full.size(), fast.size());
  // Same parseable header fields.
  const auto vf = parse_long_header(full, 0);
  const auto vq = parse_long_header(fast, 0);
  ASSERT_TRUE(vf.has_value());
  ASSERT_TRUE(vq.has_value());
  EXPECT_EQ(vf->length, vq->length);
  EXPECT_EQ(vf->dcid.size(), vq->dcid.size());
}

TEST(VersionNegotiationBuilder, RejectsEmptyVersionList) {
  util::Rng rng(12);
  EXPECT_THROW(
      build_version_negotiation(ConnectionId(), ConnectionId(), {}, rng),
      std::invalid_argument);
}

TEST(StatelessReset, MinimumSizeEnforced) {
  util::Rng rng(13);
  EXPECT_THROW(build_stateless_reset(rng, 20), std::invalid_argument);
  const auto reset = build_stateless_reset(rng, 21);
  EXPECT_EQ(reset.size(), 21u);
  EXPECT_EQ(reset[0] & 0xc0, 0x40);  // short form, fixed bit
}

}  // namespace
}  // namespace quicsand::quic
