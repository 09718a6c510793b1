// Byte pin for ParallelPipeline::finish(): kept records stay in the parts
// the classify tasks wrote, so finish() allocates only an index of those
// parts, never a second copy of the records. A global operator-new hook
// sums the bytes allocated while finish() runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/parallel_pipeline.hpp"
#include "obs/metrics.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"

// --- Counting allocator hook ------------------------------------------
// Every heap allocation in this binary adds its size to the counter; the
// test snapshots it around the region under measurement.

namespace {
// Global by necessity: operator new replacements cannot take state.
// lint:allow(unguarded-mutable-static)
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  g_bytes.fetch_add(size, std::memory_order_relaxed);
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

namespace quicsand::core {
namespace {

std::uint64_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

TEST(PipelineAllocations, FinishMakesNoCopyOfTheKeptRecords) {
  // The bench "light" shape: TCP/ICMP backscatter dominates, and every
  // record of it is kept.
  auto config = telescope::ScenarioConfig::april2021(1, 4242);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.quic_attacks_per_day = 40;
  config.attacks.common_attacks_per_day = 120;
  static const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  static const auto deployment =
      scanner::Deployment::synthetic(registry, {}, 2021);

  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    obs::MetricsRegistry metrics;
    PipelineOptions options;
    options.window_start = config.start;
    options.days = config.days;
    options.obs.metrics = &metrics;
    ParallelPipeline pipeline(options, shards);
    telescope::TelescopeGenerator generator(config, registry, deployment);
    auto batch = pipeline.acquire_batch();
    while (generator.next_batch(batch) > 0) {
      pipeline.consume_batch(std::move(batch));
      batch = pipeline.acquire_batch();
    }
    // Let every classify task finish, so the count below is finish()'s.
    const auto& inflight = metrics.gauge("parallel.inflight_batches");
    while (inflight.value() != 0) std::this_thread::yield();

    const auto before = allocated_bytes();
    pipeline.finish();
    const auto bytes = allocated_bytes() - before;

    const auto kept = pipeline.records().size();
    ASSERT_GT(kept, 100'000u);
    EXPECT_LT(bytes, kept * sizeof(PacketRecord) / 100)
        << bytes << " bytes allocated by finish() for " << kept
        << " kept records";
  }
}

}  // namespace
}  // namespace quicsand::core
