// Pins the generated telescope stream itself, below figure level: an
// FNV-1a-64 digest of (timestamp, length, bytes) over the first 100k
// packets of five scenario shapes at two seeds each. The figures never
// look at checksums or most header bytes (the classifier reads neither),
// so a serializer change that corrupts them would pass every golden
// figure; these digests would not. The same pass checks that every
// generated datagram carries valid IPv4 and L4 checksums.
//
// A change to a pin is a change to the generated traffic, and must be
// made on purpose, with the figure goldens checked alongside.
//
// A batch arena is not zero-filled, so every producer must write each
// byte it appends. The second test fills arenas poisoned with two
// different bytes and requires the two streams to be byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "net/record_batch.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

namespace quicsand::telescope {
namespace {

constexpr std::uint64_t kPacketLimit = 100'000;

/// The three shapes of telescope_batch_diff_test (april2021, light
/// without research, full crypto), a flood-heavy light shape where many
/// floods interleave, so packets sharing a timestamp must keep their
/// order, and a research shape. april2021's first research pass starts
/// at least 0.94 days into its one-day window, after its first 100k
/// packets, so at these seeds its digests equal the light shape's. The
/// research shape scans three times a day: research probes are 1.8% and
/// 3.2% of its first 100k packets at the two seeds.
ScenarioConfig shape(const std::string& name, std::uint64_t seed) {
  auto base = ScenarioConfig::april2021(1, seed);
  base.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  base.attacks.quic_attacks_per_day = 40;
  base.attacks.common_attacks_per_day = 120;
  base.botnet.sessions_per_day = 200;
  base.misconfig.sessions_per_day = 150;
  if (name == "april2021") return base;
  if (name == "research") {
    base.tum.passes_per_day = 3;
    base.rwth.passes_per_day = 3;
    return base;
  }

  auto light = base;
  light.tum.passes_per_day = 0;
  light.rwth.passes_per_day = 0;
  if (name == "light-no-research") return light;

  if (name == "flood-heavy") {
    light.attacks.quic_attacks_per_day = 600;
    light.attacks.common_attacks_per_day = 2400;
    return light;
  }

  auto full_crypto = light;
  full_crypto.fidelity = quic::CryptoFidelity::kFull;
  full_crypto.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 22};
  full_crypto.attacks.quic_attacks_per_day = 12;
  full_crypto.attacks.common_attacks_per_day = 40;
  full_crypto.botnet.sessions_per_day = 60;
  full_crypto.misconfig.sessions_per_day = 50;
  return full_crypto;
}

class Fnv1a64 {
 public:
  void add(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      add_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void add(std::span<const std::uint8_t> data) {
    for (const auto b : data) add_byte(b);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void add_byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct StreamDigest {
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;
  std::uint64_t bad_checksums = 0;
  std::uint64_t first_bad = 0;  ///< index of the first failing packet
};

TelescopeGenerator make_generator(const ScenarioConfig& config) {
  static const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  static const auto deployment =
      scanner::Deployment::synthetic(registry, {}, 2021);
  return TelescopeGenerator(config, registry, deployment);
}

StreamDigest digest_stream(const ScenarioConfig& config) {
  auto generator = make_generator(config);
  net::RecordBatch batch;
  Fnv1a64 hash;
  StreamDigest out;
  while (out.packets < kPacketLimit && generator.next_batch(batch) > 0) {
    for (std::size_t i = 0; i < batch.size() && out.packets < kPacketLimit;
         ++i) {
      const auto view = batch.view(i);
      hash.add(static_cast<std::uint64_t>(view.timestamp.count()), 8);
      hash.add(view.data.size(), 4);
      hash.add(view.data);
      if (!net::verify_checksums(view.data)) {
        if (out.bad_checksums++ == 0) out.first_bad = out.packets;
      }
      ++out.packets;
    }
  }
  out.digest = hash.value();
  return out;
}

struct Pin {
  const char* shape;
  std::uint64_t seed;
  std::uint64_t packets;
  std::uint64_t digest;
};

// clang-format off
constexpr Pin kPins[] = {
    {"april2021", 4242, 100000, 0x427bedb2c1d5dc52},
    {"april2021", 4243, 100000, 0xf6a75bddb7e69efc},
    {"light-no-research", 4242, 100000, 0x427bedb2c1d5dc52},
    {"light-no-research", 4243, 100000, 0xf6a75bddb7e69efc},
    {"full-crypto", 4242, 100000, 0x603be1a3b09a31d2},
    {"full-crypto", 4243, 100000, 0x900ec86cc582a960},
    {"flood-heavy", 4242, 100000, 0x30d045d77c98a35f},
    {"flood-heavy", 4243, 100000, 0xa9fe3155ff759306},
    {"research", 4242, 100000, 0xae8881eaf46428cb},
    {"research", 4243, 100000, 0xdc577f3c64e50aab},
};
// clang-format on

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.shape << " seed " << pin.seed;
}

class TelescopeStreamGolden : public ::testing::TestWithParam<Pin> {};

TEST_P(TelescopeStreamGolden, DigestMatchesPinAndEveryDatagramVerifies) {
  const Pin& pin = GetParam();
  const auto got = digest_stream(shape(pin.shape, pin.seed));
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(got.digest));
  EXPECT_EQ(got.packets, pin.packets) << pin.shape << " seed " << pin.seed;
  EXPECT_EQ(got.digest, pin.digest)
      << pin.shape << " seed " << pin.seed << " digest " << hex;
  EXPECT_EQ(got.bad_checksums, 0u)
      << "first failing packet: " << got.first_bad;
}

/// Write `byte` over the batch's whole arena, then empty the batch.
void poison(net::RecordBatch& batch, std::uint8_t byte) {
  batch.clear();
  const auto arena = batch.append(util::Timestamp{}, batch.arena_bytes());
  std::fill(arena.begin(), arena.end(), byte);
  batch.clear();
}

TEST_P(TelescopeStreamGolden, ProducersWriteEveryByteTheyAppend) {
  const Pin& pin = GetParam();
  const auto config = shape(pin.shape, pin.seed);
  auto a = make_generator(config);
  auto b = make_generator(config);
  net::RecordBatch batch_a;
  net::RecordBatch batch_b;
  std::uint64_t packets = 0;
  while (packets < kPacketLimit) {
    poison(batch_a, 0xA5);
    poison(batch_b, 0x5A);
    const auto n = a.next_batch(batch_a);
    ASSERT_EQ(b.next_batch(batch_b), n);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const auto lhs = batch_a.view(i);
      const auto rhs = batch_b.view(i);
      ASSERT_EQ(lhs.timestamp, rhs.timestamp);
      ASSERT_TRUE(std::ranges::equal(lhs.data, rhs.data))
          << "packet " << packets + i << " kept a poisoned byte";
    }
    packets += n;
  }
  EXPECT_GE(packets, pin.packets) << "the stream ended early";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TelescopeStreamGolden, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      std::string name = info.param.shape;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace quicsand::telescope
