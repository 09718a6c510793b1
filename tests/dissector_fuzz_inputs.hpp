// The UDP payloads the DissectorFuzz suite (property_quic_test) throws
// at the dissector, shared with parser_oracle_test so the classifier
// oracle runs on exactly the same bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "quic/packets.hpp"
#include "util/rng.hpp"

namespace quicsand::quic::fuzz_inputs {

using Payloads = std::vector<std::vector<std::uint8_t>>;

/// 3000 random byte strings of 0..1499 bytes.
inline Payloads random_payloads() {
  util::Rng rng(11);
  Payloads out;
  for (int trial = 0; trial < 3000; ++trial) {
    out.push_back(rng.bytes(rng.uniform(1500)));
  }
  return out;
}

/// 2000 copies of one v1 client Initial, each with 1..8 bits flipped.
inline Payloads mutated_initials() {
  util::Rng rng(13);
  const auto ctx = HandshakeContext::random(1, rng);
  const auto base =
      build_client_initial(ctx, "fuzz.example", rng, CryptoFidelity::kFast);
  Payloads out;
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = base;
    const int flips = 1 + static_cast<int>(rng.uniform(8));
    for (int f = 0; f < flips; ++f) {
      const auto bit = rng.uniform(mutated.size() * 8);
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    out.push_back(std::move(mutated));
  }
  return out;
}

/// Every prefix, empty to whole, of one draft-29 server Initial +
/// Handshake flight.
inline Payloads truncation_sweep() {
  util::Rng rng(17);
  const auto ctx = HandshakeContext::random(0xff00001d, rng);
  const auto datagram =
      build_server_initial_handshake(ctx, rng, CryptoFidelity::kFast);
  Payloads out;
  for (std::size_t len = 0; len <= datagram.size(); ++len) {
    out.emplace_back(datagram.begin(),
                     datagram.begin() + static_cast<std::ptrdiff_t>(len));
  }
  return out;
}

}  // namespace quicsand::quic::fuzz_inputs
