// Byte pin for ParallelPipeline's ingest: each shard folds its records
// into session tables as batches arrive, so no kept record outlives its
// batch. Once the batch pool and the in-flight record parts are warm,
// ingest allocates for new sessions only, never per record. A global
// operator-new hook sums the bytes allocated over the second half of
// ingest plus finish().
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

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

TEST(PipelineAllocations, IngestRetainsNoRecords) {
  // The "light-no-research" shape of telescope_stream_golden_test with
  // twice its TCP/ICMP floods. As on gen_backscatter, TCP/ICMP
  // backscatter dominates the kept records (about 1.2M here) and comes in
  // few sessions. Sessions, QUIC gaps and response sessions' distinct
  // sets do allocate: at 120 floods a day they cost 3.7% (1 shard) and
  // 5.2% (4 shards) of the second half's record bytes, at 240 floods 2.2%
  // and 3.4%.
  auto config = telescope::ScenarioConfig::april2021(1, 4242);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.quic_attacks_per_day = 40;
  config.attacks.common_attacks_per_day = 240;
  config.botnet.sessions_per_day = 200;
  config.misconfig.sessions_per_day = 150;
  static const auto registry = asdb::AsRegistry::synthetic({}, 2021);
  static const auto deployment =
      scanner::Deployment::synthetic(registry, {}, 2021);

  // The generator allocates as it goes, so the stream is generated up
  // front: each batch's packets, and the kept records after each batch
  // from a serial classifier.
  std::vector<std::vector<net::RawPacket>> batches;
  std::vector<std::uint64_t> kept_after;
  {
    telescope::TelescopeGenerator generator(config, registry, deployment);
    Classifier classifier({});
    net::RecordBatch batch;
    while (generator.next_batch(batch) > 0) {
      auto& packets = batches.emplace_back();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto view = batch.view(i);
        (void)classifier.classify(view.timestamp, view.data);
        packets.push_back({view.timestamp, {view.data.begin(),
                                            view.data.end()}});
      }
      kept_after.push_back(classifier.stats().kept);
    }
  }
  const std::size_t half = batches.size() / 2;
  const auto kept_second_half = kept_after.back() - kept_after[half - 1];
  ASSERT_GT(kept_second_half, 50'000u);

  for (const std::size_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    obs::MetricsRegistry metrics;
    PipelineOptions options;
    options.window_start = config.start;
    options.days = config.days;
    options.obs.metrics = &metrics;
    ParallelPipeline pipeline(options, shards);
    const auto& inflight = metrics.gauge("parallel.inflight_batches");
    std::uint64_t before = 0;
    for (std::size_t n = 0; n < batches.size(); ++n) {
      if (n == half) {
        // Let every first-half batch be absorbed, so the count below
        // is the second half's. Then warm the batch pool to what ingest
        // can hold at once: the batch being filled plus 4 * shards in
        // flight. Empty batches go straight back to the pool.
        while (inflight.value() != 0) std::this_thread::yield();
        std::vector<net::RecordBatch> warm;
        while (warm.size() < 4 * shards + 1) {
          warm.push_back(pipeline.acquire_batch());
        }
        for (auto& batch : warm) pipeline.consume_batch(std::move(batch));
        before = allocated_bytes();
      }
      auto batch = pipeline.acquire_batch();
      for (const auto& packet : batches[n]) {
        ASSERT_TRUE(batch.try_append(packet.timestamp, packet.data));
      }
      pipeline.consume_batch(std::move(batch));
    }
    pipeline.finish();
    const auto bytes = allocated_bytes() - before;

    ASSERT_EQ(pipeline.stats().kept, kept_after.back());
    EXPECT_LT(bytes, kept_second_half * sizeof(PacketRecord) / 20)
        << bytes << " bytes allocated over the second half of ingest and "
        << "finish() for " << kept_second_half << " kept records";
  }
}

}  // namespace
}  // namespace quicsand::core
