#include "quic/retry.hpp"

#include <gtest/gtest.h>

#include "quic/header.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace quicsand::quic {
namespace {

using util::from_hex_strict;

const net::Ipv4Address kClient = net::Ipv4Address::from_octets(203, 0, 113, 7);
constexpr std::uint16_t kPort = 50123;

ConnectionId cid(const char* hex) {
  return ConnectionId(from_hex_strict(hex));
}

class RetryTokenTest : public ::testing::Test {
 protected:
  RetryTokenTest()
      : minter_(from_hex_strict("000102030405060708090a0b0c0d0e0f"),
                10 * util::kSecond) {}

  RetryTokenMinter minter_;
  util::Timestamp now_ = util::kApril2021Start;
};

TEST_F(RetryTokenTest, MintValidateRoundTrip) {
  const auto odcid = cid("8394c8f03e515708");
  const auto token = minter_.mint(kClient, kPort, odcid, now_);
  const auto validated = minter_.validate(token, kClient, kPort, now_ + util::kSecond);
  ASSERT_TRUE(validated.has_value());
  EXPECT_EQ(*validated, odcid);
}

TEST_F(RetryTokenTest, RejectsDifferentClientAddress) {
  const auto token = minter_.mint(kClient, kPort, cid("aa"), now_);
  const auto other = net::Ipv4Address::from_octets(203, 0, 113, 8);
  EXPECT_FALSE(minter_.validate(token, other, kPort, now_).has_value());
}

TEST_F(RetryTokenTest, RejectsDifferentClientPort) {
  const auto token = minter_.mint(kClient, kPort, cid("aa"), now_);
  EXPECT_FALSE(minter_.validate(token, kClient, kPort + 1, now_).has_value());
}

TEST_F(RetryTokenTest, RejectsExpiredToken) {
  const auto token = minter_.mint(kClient, kPort, cid("aa"), now_);
  EXPECT_TRUE(
      minter_.validate(token, kClient, kPort, now_ + 9 * util::kSecond)
          .has_value());
  EXPECT_FALSE(
      minter_.validate(token, kClient, kPort, now_ + 11 * util::kSecond)
          .has_value());
}

TEST_F(RetryTokenTest, RejectsTokenFromTheFuture) {
  const auto token = minter_.mint(kClient, kPort, cid("aa"), now_);
  EXPECT_FALSE(
      minter_.validate(token, kClient, kPort, now_ - util::kSecond)
          .has_value());
}

TEST_F(RetryTokenTest, RejectsTamperedToken) {
  auto token = minter_.mint(kClient, kPort, cid("aabbccdd"), now_);
  token[9] ^= 0x01;  // inside the odcid length/odcid region
  EXPECT_FALSE(minter_.validate(token, kClient, kPort, now_).has_value());
}

TEST_F(RetryTokenTest, RejectsTruncatedToken) {
  const auto token = minter_.mint(kClient, kPort, cid("aa"), now_);
  const std::span<const std::uint8_t> shortened(token.data(),
                                                token.size() - 1);
  EXPECT_FALSE(minter_.validate(shortened, kClient, kPort, now_).has_value());
  EXPECT_FALSE(minter_.validate({token.data(), 5}, kClient, kPort, now_)
                   .has_value());
}

TEST_F(RetryTokenTest, DifferentSecretsRejectEachOther) {
  RetryTokenMinter other(from_hex_strict("ffffffffffffffffffffffffffffffff"));
  const auto token = minter_.mint(kClient, kPort, cid("aa"), now_);
  EXPECT_FALSE(other.validate(token, kClient, kPort, now_).has_value());
}

TEST(RetryTokenMinterTest, RejectsEmptySecret) {
  EXPECT_THROW(RetryTokenMinter minter({}), std::invalid_argument);
}

class RetryPacketTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RetryPacketTest, BuildVerifyRoundTrip) {
  const std::uint32_t version = GetParam();
  const auto odcid = cid("8394c8f03e515708");
  const auto token = from_hex_strict("746f6b656e");  // "token"
  const auto packet = build_retry_packet(version, cid("c0ffee"),
                                         cid("0123456789abcdef"), token,
                                         odcid);
  // Parses as a Retry packet.
  const auto view = parse_long_header(packet, 0);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, PacketType::kRetry);
  EXPECT_EQ(view->version, version);
  EXPECT_EQ(ConnectionId(view->scid), cid("0123456789abcdef"));
  ASSERT_EQ(view->retry_token.size(), token.size());
  EXPECT_TRUE(std::equal(token.begin(), token.end(),
                         view->retry_token.begin()));
  // Integrity verifies against the correct ODCID only.
  EXPECT_TRUE(verify_retry_integrity(version, packet, odcid));
  EXPECT_FALSE(verify_retry_integrity(version, packet, cid("deadbeef")));
}

TEST_P(RetryPacketTest, TamperedPacketFailsIntegrity) {
  const std::uint32_t version = GetParam();
  const auto odcid = cid("8394c8f03e515708");
  auto packet = build_retry_packet(version, cid("c0ffee"), cid("11223344"),
                                   from_hex_strict("aabb"), odcid);
  packet[7] ^= 0x01;
  EXPECT_FALSE(verify_retry_integrity(version, packet, odcid));
}

INSTANTIATE_TEST_SUITE_P(AllSaltGenerations, RetryPacketTest,
                         ::testing::Values(0x00000001u,   // v1
                                           0xff00001du,   // draft-29
                                           0xff00001bu,   // draft-27
                                           0xfaceb002u),  // mvfst-draft-27
                         [](const auto& info) {
                           switch (info.param) {
                             case 1:
                               return std::string("v1");
                             case 0xff00001d:
                               return std::string("draft29");
                             case 0xff00001b:
                               return std::string("draft27");
                             default:
                               return std::string("mvfst");
                           }
                         });

TEST(RetryPacket, RejectsUnsupportedVersion) {
  EXPECT_THROW(build_retry_packet(0x51303433, cid("aa"), cid("bb"),
                                  from_hex_strict("cc"), cid("dd")),
               std::invalid_argument);
}

TEST(RetryPacket, RejectsEmptyToken) {
  EXPECT_THROW(build_retry_packet(1, cid("aa"), cid("bb"), {}, cid("dd")),
               std::invalid_argument);
}

TEST(RetryPacket, VerifyRejectsShortPacket) {
  const std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(verify_retry_integrity(1, tiny, cid("aa")));
}

}  // namespace
}  // namespace quicsand::quic
