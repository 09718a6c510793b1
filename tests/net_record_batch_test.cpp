// RecordBatch property tests plus the zero-allocation pin for batched
// generation: a global operator-new hook counts heap allocations, and
// the steady-state generate loop (warm emitters, reused batch) must
// perform none per batch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/record_batch.hpp"
#include "scanner/deployment.hpp"
#include "telescope/attack_schedule.hpp"
#include "telescope/emitters.hpp"
#include "telescope/generator.hpp"
#include "util/rng.hpp"

// --- Counting allocator hook ------------------------------------------
// Every heap allocation in this binary bumps the counter; tests snapshot
// it around the region under measurement. Deletes are not counted (the
// pin is about allocation traffic, and sized/unsized delete pairing
// stays with the default behavior via free()).

namespace {
// Global by necessity: operator new replacements cannot take state.
// lint:allow(unguarded-mutable-static)
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace quicsand::net {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

util::Timestamp ts(std::int64_t ns) { return util::Timestamp{} + util::Duration{ns}; }

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 37);
  }
  return out;
}

// --- Capacity / reset / reuse invariants ------------------------------

TEST(RecordBatch, RespectsRecordCapacity) {
  RecordBatch batch(4, 1024);
  const auto data = pattern_bytes(10, 1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(batch.try_append(ts(i), data));
  }
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_FALSE(batch.has_room(1));
  EXPECT_FALSE(batch.try_append(ts(5), data));
  // A failed append leaves the batch untouched.
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch.arena_used(), 40u);
}

TEST(RecordBatch, RespectsArenaCapacity) {
  RecordBatch batch(100, 64);
  EXPECT_TRUE(batch.try_append(ts(0), pattern_bytes(40, 2)));
  EXPECT_FALSE(batch.try_append(ts(1), pattern_bytes(25, 3)));
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.arena_used(), 40u);
  // A packet that still fits the remaining arena is accepted.
  EXPECT_TRUE(batch.try_append(ts(1), pattern_bytes(24, 3)));
  EXPECT_EQ(batch.arena_used(), 64u);
  EXPECT_FALSE(batch.has_room(1));
}

TEST(RecordBatch, ClearKeepsStorageAndAllowsReuse) {
  RecordBatch batch(8, 256);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(batch.try_append(ts(i), pattern_bytes(16, std::uint8_t(i))));
  }
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.arena_used(), 0u);
  EXPECT_EQ(batch.capacity(), 8u);
  EXPECT_EQ(batch.arena_bytes(), 256u);

  // Refill after clear: contents are the new packets, not stale ones.
  const auto fresh = pattern_bytes(20, 99);
  ASSERT_TRUE(batch.try_append(ts(42), fresh));
  const auto view = batch.view(0);
  EXPECT_EQ(view.timestamp, ts(42));
  ASSERT_EQ(view.data.size(), fresh.size());
  EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), view.data.begin()));
}

TEST(RecordBatch, AppendReturnsTheRegionViewReads) {
  RecordBatch batch(4, 64);
  const auto region = batch.append(ts(7), 40);
  ASSERT_EQ(region.size(), 40u);
  for (std::size_t i = 0; i < region.size(); ++i) {
    region[i] = static_cast<std::uint8_t>(i);
  }
  const auto view = batch.view(0);
  EXPECT_EQ(view.timestamp, ts(7));
  EXPECT_EQ(view.data.data(), region.data());
  EXPECT_EQ(view.data.size(), 40u);
  EXPECT_EQ(view.data[39], 39);
  // No room: throws and leaves the batch as it was.
  EXPECT_THROW((void)batch.append(ts(8), 25), std::length_error);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.arena_used(), 40u);
  EXPECT_EQ(batch.append(ts(8), 24).data(), region.data() + 40);
}

// --- SoA column consistency -------------------------------------------

TEST(RecordBatch, ColumnsStayConsistentUnderRandomFill) {
  util::Rng rng(4242);
  RecordBatch batch(64, 8192);
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<util::Timestamp> expected_ts;
  for (;;) {
    const std::size_t len = 1 + rng.uniform(300);
    auto data = pattern_bytes(len, static_cast<std::uint8_t>(rng.next()));
    const auto t = ts(static_cast<std::int64_t>(expected.size()) * 1000);
    if (!batch.try_append(t, data)) break;
    expected.push_back(std::move(data));
    expected_ts.push_back(t);
  }
  ASSERT_GT(batch.size(), 10u);
  ASSERT_EQ(batch.size(), expected.size());

  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto view = batch.view(i);
    EXPECT_EQ(view.timestamp, expected_ts[i]);
    ASSERT_EQ(view.data.size(), expected[i].size());
    EXPECT_TRUE(std::equal(expected[i].begin(), expected[i].end(),
                           view.data.begin()))
        << "payload " << i << " differs";
    // Packets are packed back-to-back in the arena.
    if (i > 0) {
      const auto prev = batch.view(i - 1);
      EXPECT_EQ(view.data.data(), prev.data.data() + prev.data.size());
    }
    total_bytes += view.data.size();
  }
  EXPECT_EQ(batch.arena_used(), total_bytes);
  EXPECT_EQ(batch.timestamps().size(), batch.size());
}

TEST(RecordBatch, SwapExchangesContents) {
  RecordBatch a(4, 128);
  RecordBatch b(16, 512);
  ASSERT_TRUE(a.try_append(ts(1), pattern_bytes(8, 1)));
  swap(a, b);
  EXPECT_EQ(a.capacity(), 16u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.capacity(), 4u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.view(0).timestamp, ts(1));
}

TEST(RecordBatch, MovedFromBatchHasNoArena) {
  RecordBatch a(4, 128);
  ASSERT_TRUE(a.try_append(ts(1), pattern_bytes(8, 1)));
  RecordBatch b(std::move(a));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.arena_bytes(), 128u);
  // The arena moved with its bytes; the source holds nothing to append
  // into, so a pool never hands it out as a usable batch.
  EXPECT_EQ(a.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.arena_bytes(), 0u);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.has_room(0));
  RecordBatch c(2, 64);
  c = std::move(b);
  EXPECT_EQ(c.capacity(), 4u);
  EXPECT_EQ(c.view(0).timestamp, ts(1));
  EXPECT_EQ(b.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
}

// --- Zero steady-state allocations ------------------------------------

TEST(RecordBatch, AppendClearCycleAllocatesNothing) {
  RecordBatch batch(32, 4096);
  const auto data = pattern_bytes(100, 7);
  // Warm-up fill (columns were reserved at construction already).
  while (batch.try_append(ts(0), data)) {
  }
  batch.clear();

  const auto before = allocations();
  for (int cycle = 0; cycle < 100; ++cycle) {
    while (batch.try_append(ts(cycle), data)) {
    }
    batch.clear();
  }
  EXPECT_EQ(allocations(), before);
}

/// Stage and emit one packet into `buf`; false when drained.
bool produce(telescope::PacketEmitter& emitter,
             std::vector<std::uint8_t>& buf) {
  if (!emitter.stage()) return false;
  emitter.emit(std::span(buf).first(emitter.staged_size()));
  return true;
}

/// Drain an emitter built by `make` once to learn its stream length,
/// then rebuild it, warm it over the first half, and assert the second
/// half produces with ZERO heap allocations: every scratch buffer
/// (writers, retransmission queues, crypto scratch) must have reached
/// its high-water capacity.
template <typename MakeEmitter>
void expect_warm_emitter_alloc_free(const char* name, MakeEmitter make) {
  std::vector<std::uint8_t> buf(65535);
  std::uint64_t length = 0;
  {
    auto emitter = make();
    while (produce(emitter, buf)) ++length;
  }
  ASSERT_GT(length, 1000u) << name;
  auto emitter = make();
  for (std::uint64_t i = 0; i < length / 2; ++i) produce(emitter, buf);
  const auto before = allocations();
  std::uint64_t produced = 0;
  while (produce(emitter, buf)) ++produced;
  EXPECT_EQ(allocations() - before, 0u)
      << name << " allocated during its warm second half";
  EXPECT_EQ(produced, length - length / 2) << name;
}

TEST(RecordBatch, WarmEmittersProduceWithoutAllocating) {
  auto config = telescope::ScenarioConfig::april2021(1, 4242);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, 2021);

  util::Rng rng(1234);
  const auto attacks =
      telescope::plan_attacks(config, registry, deployment, rng);
  // Pick the highest-volume attack of each protocol so the warm second
  // half is long enough to be meaningful.
  const telescope::PlannedAttack* tcp = nullptr;
  const telescope::PlannedAttack* icmp = nullptr;
  auto volume = [](const telescope::PlannedAttack& attack) {
    return attack.peak_pps * util::to_seconds(attack.duration);
  };
  for (const auto& attack : attacks) {
    if (attack.protocol == telescope::AttackProtocol::kTcp &&
        (tcp == nullptr || volume(attack) > volume(*tcp))) {
      tcp = &attack;
    }
    if (attack.protocol == telescope::AttackProtocol::kIcmp &&
        (icmp == nullptr || volume(attack) > volume(*icmp))) {
      icmp = &attack;
    }
  }
  ASSERT_NE(tcp, nullptr);
  ASSERT_NE(icmp, nullptr);

  const auto source = net::Ipv4Address::from_octets(9, 9, 9, 9);
  expect_warm_emitter_alloc_free("common-tcp", [&] {
    return telescope::CommonBackscatterEmitter(config, *tcp, 7);
  });
  expect_warm_emitter_alloc_free("common-icmp", [&] {
    return telescope::CommonBackscatterEmitter(config, *icmp, 7);
  });
  expect_warm_emitter_alloc_free("botnet", [&] {
    return telescope::BotnetSessionEmitter(config, source, config.start,
                                           20000, 7);
  });
  // All three misconfig wire formats: QUIC v1, draft-29, gQUIC Q050.
  for (const std::uint32_t version : {1u, 0xff00001du, 0x51303530u}) {
    expect_warm_emitter_alloc_free("misconfig", [&] {
      return telescope::MisconfigEmitter(config, source, version,
                                         config.start, 20000, 7);
    });
  }
}

TEST(RecordBatch, SteadyStateGenerationTailIsAllocationFree) {
  // Full-generator pin over the emitters with fully-retained scratch
  // state (research passes rebuild per-pass permutation state and QUIC
  // backscatter refills its spare datagram pool under bursts; both are
  // covered by the differential suite instead). Sessions and attacks
  // start throughout the window, so an emitter whose stream begins in
  // the measured tail legitimately grows its buffers once there — the
  // pin is therefore amortized: the overwhelming share of tail batches
  // perform zero allocations, and the per-packet allocation rate is
  // ~zero. Per-emitter strict-zero is pinned above.
  auto config = telescope::ScenarioConfig::april2021(1, 4242);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.quic_attacks_per_day = 0;
  config.attacks.common_attacks_per_day = 120;
  config.botnet.sessions_per_day = 200;
  config.misconfig.sessions_per_day = 150;

  const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  const auto deployment = scanner::Deployment::synthetic(registry, {}, 2021);
  telescope::TelescopeGenerator generator(config, registry, deployment);
  RecordBatch batch(1024, 1024 * 1500);

  std::vector<std::uint64_t> allocs_per_batch;
  std::vector<std::uint64_t> packets_per_batch;
  for (;;) {
    const auto before = allocations();
    const auto n = generator.next_batch(batch);
    if (n == 0) break;
    allocs_per_batch.push_back(allocations() - before);
    packets_per_batch.push_back(n);
  }
  ASSERT_GT(allocs_per_batch.size(), 40u);

  // Measured region: the final quarter of the stream.
  const std::size_t tail_start = allocs_per_batch.size() * 3 / 4;
  std::uint64_t tail_allocs = 0;
  std::uint64_t tail_packets = 0;
  std::size_t zero_batches = 0;
  for (std::size_t i = tail_start; i < allocs_per_batch.size(); ++i) {
    tail_allocs += allocs_per_batch[i];
    tail_packets += packets_per_batch[i];
    if (allocs_per_batch[i] == 0) ++zero_batches;
  }
  const std::size_t tail_batches = allocs_per_batch.size() - tail_start;
  EXPECT_GE(zero_batches * 2, tail_batches)
      << tail_batches - zero_batches << " of " << tail_batches
      << " tail batches hit the heap";
  EXPECT_LT(static_cast<double>(tail_allocs),
            0.005 * static_cast<double>(tail_packets))
      << tail_allocs << " allocations over " << tail_packets
      << " tail packets";
}

}  // namespace
}  // namespace quicsand::net
