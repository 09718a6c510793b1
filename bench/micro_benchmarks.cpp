// Microbenchmarks (google-benchmark) for the hot paths: the crypto core,
// the QUIC codec/dissector, packet builders, the capture reader and the
// classifier. These bound the throughput of the telescope generator and
// the analysis pipeline. The last one prices the metrics-history
// sampler's pass.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "asdb/registry.hpp"
#include "bench_common.hpp"
#include "core/classifier.hpp"
#include "core/online_shards.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/pipeline.hpp"
#include "telescope/generator.hpp"
#include "crypto/gcm.hpp"
#include "crypto/sha256.hpp"
#include "net/headers.hpp"
#include "net/live/frame.hpp"
#include "net/live/receiver.hpp"
#include "net/pcap.hpp"
#include "net/record_batch.hpp"
#include "obs/sampler.hpp"
#include "obs/tsdb.hpp"
#include "quic/dissector.hpp"
#include "quic/packets.hpp"
#include "quic/gquic.hpp"
#include "quic/transport_params.hpp"
#include "quic/varint.hpp"
#include "server/replay.hpp"
#include "util/rng.hpp"

namespace quicsand {
namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  util::Rng rng(1);
  const auto data = rng.bytes(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_AesGcm_Seal1200(benchmark::State& state) {
  util::Rng rng(2);
  const crypto::AesGcm gcm(rng.bytes(16));
  const auto nonce = rng.bytes(12);
  const auto aad = rng.bytes(40);
  const auto payload = rng.bytes(1200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm.seal(nonce, aad, payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1200);
}
BENCHMARK(BM_AesGcm_Seal1200);

void BM_AesGcm_KeySetup(benchmark::State& state) {
  util::Rng rng(3);
  const auto key = rng.bytes(16);
  for (auto _ : state) {
    crypto::AesGcm gcm(key);
    benchmark::DoNotOptimize(&gcm);
  }
}
BENCHMARK(BM_AesGcm_KeySetup);

void BM_Varint_RoundTrip(benchmark::State& state) {
  const std::uint64_t values[] = {37, 15293, 494878333,
                                  151288809941952652ULL};
  for (auto _ : state) {
    util::ByteWriter w(64);
    for (const auto v : values) quic::write_varint(w, v);
    util::ByteReader r(w.view());
    for (std::size_t i = 0; i < 4; ++i) {
      benchmark::DoNotOptimize(quic::read_varint(r));
    }
  }
}
BENCHMARK(BM_Varint_RoundTrip);

void BM_BuildClientInitial(benchmark::State& state) {
  util::Rng rng(4);
  const auto fidelity = state.range(0) == 0 ? quic::CryptoFidelity::kFast
                                            : quic::CryptoFidelity::kFull;
  for (auto _ : state) {
    auto ctx = quic::HandshakeContext::random(1, rng);
    benchmark::DoNotOptimize(
        quic::build_client_initial(ctx, "bench.example", rng, fidelity));
  }
}
BENCHMARK(BM_BuildClientInitial)->Arg(0)->Arg(1);

void BM_Dissect_ClientInitial(benchmark::State& state) {
  util::Rng rng(5);
  auto ctx = quic::HandshakeContext::random(1, rng);
  const auto datagram = quic::build_client_initial(
      ctx, "bench.example", rng, quic::CryptoFidelity::kFast);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quic::dissect_udp_payload(datagram));
  }
}
BENCHMARK(BM_Dissect_ClientInitial);

void BM_Dissect_Deep(benchmark::State& state) {
  util::Rng rng(6);
  auto ctx = quic::HandshakeContext::random(1, rng);
  const auto datagram = quic::build_client_initial(
      ctx, "bench.example", rng, quic::CryptoFidelity::kFull);
  quic::DissectOptions options;
  options.decrypt_initials = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quic::dissect_udp_payload(datagram, options));
  }
}
BENCHMARK(BM_Dissect_Deep);

void BM_Classifier(benchmark::State& state) {
  util::Rng rng(7);
  auto ctx = quic::HandshakeContext::random(1, rng);
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 0, 1);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  const net::RawPacket packet{
      util::Timestamp{}, net::build_udp(ip, 443, 40000,
                        quic::build_server_initial_handshake(
                            ctx, rng, quic::CryptoFidelity::kFast))};
  core::Classifier classifier({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(packet));
  }
}
BENCHMARK(BM_Classifier);

// --- perfbench's three traffic mixes --------------------------------------
// Each workload's stream (its first `packets` datagrams), keeping one in
// `stride` so each mix holds about 50k datagrams in the stream's
// proportions: gen_backscatter's TCP/ICMP backscatter day, pcap_quicscan's
// research-heavy QUIC-scan day and live_loopback's QUIC-flood day, all
// /16, seed 1.

enum class Mix { kBackscatter, kQuicScan, kQuicFlood };

telescope::ScenarioConfig mix_config(Mix mix) {
  auto config = telescope::ScenarioConfig::april2021(1, 1);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 16};
  auto& attacks = config.attacks;
  for (double* sigma :
       {&attacks.quic_duration_sigma, &attacks.quic_peak_pps_sigma,
        &attacks.common_duration_sigma, &attacks.common_peak_pps_sigma}) {
    *sigma = 0.5;
  }
  const bool scan = mix == Mix::kQuicScan;
  config.tum.passes_per_day = scan ? 3 : 0;
  config.rwth.passes_per_day = scan ? 3 : 0;
  switch (mix) {
    case Mix::kBackscatter:
      attacks.common_attacks_per_day = 2400;
      break;
    case Mix::kQuicScan:
      attacks.common_attacks_per_day = 30;
      break;
    case Mix::kQuicFlood:
      attacks.quic_attacks_per_day = 3000;
      attacks.common_attacks_per_day = 60;
      break;
  }
  return config;
}

/// The mix in default RecordBatches, the way the pipeline holds packets;
/// generated on first use.
const std::vector<net::RecordBatch>& mix_batches(Mix mix) {
  struct Stream {
    std::size_t packets;
    std::size_t stride;
  };
  static constexpr Stream kStreams[] = {{500000, 10}, {450000, 9}, {300000, 6}};
  static std::array<std::vector<net::RecordBatch>, 3> mixes;
  const auto index = static_cast<std::size_t>(mix);
  auto& batches = mixes[index];
  if (!batches.empty()) return batches;
  telescope::TelescopeGenerator generator(mix_config(mix), bench::registry(),
                                          bench::deployment());
  net::RecordBatch source;
  batches.emplace_back();
  std::size_t seen = 0;
  while (seen < kStreams[index].packets && generator.next_batch(source) > 0) {
    for (std::size_t i = 0; i < source.size(); ++i, ++seen) {
      if (seen % kStreams[index].stride != 0) continue;
      const auto view = source.view(i);
      if (!batches.back().try_append(view.timestamp, view.data)) {
        batches.emplace_back();
        batches.back().try_append(view.timestamp, view.data);
      }
    }
  }
  return batches;
}

/// perfbench's classifier: the two research scanners flagged.
core::ClassifierConfig research_config() {
  core::ClassifierConfig config;
  for (const auto asn :
       {asdb::AsRegistry::kTumScanner, asdb::AsRegistry::kRwthScanner}) {
    config.research_prefixes.push_back(
        bench::registry().prefixes_of(asn).front());
  }
  return config;
}

void classify_batch(core::Classifier& classifier,
                    const net::RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto view = batch.view(i);
    auto record = classifier.classify(view.timestamp, view.data);
    benchmark::DoNotOptimize(record);
  }
}

// Classify on each mix, hot: each batch is classified once untimed, so
// its bytes are in cache, then again timed. per_datagram is the hot cost
// of one classify() call.
void BM_Classify(benchmark::State& state, Mix mix) {
  const auto& batches = mix_batches(mix);
  core::Classifier classifier(research_config());
  std::size_t next = 0;
  double datagrams = 0;
  for (auto _ : state) {
    const auto& batch = batches[next++ % batches.size()];
    state.PauseTiming();
    classify_batch(classifier, batch);
    state.ResumeTiming();
    classify_batch(classifier, batch);
    datagrams += static_cast<double>(batch.size());
  }
  state.counters["per_datagram"] = benchmark::Counter(
      datagrams, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_Classify, backscatter, Mix::kBackscatter);
BENCHMARK_CAPTURE(BM_Classify, quicscan, Mix::kQuicScan);
BENCHMARK_CAPTURE(BM_Classify, quicflood, Mix::kQuicFlood);

/// Reads an in-memory image through std::istream without copying it.
class MemoryBuf final : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

/// The QUIC-scan mix as a classic LINKTYPE_RAW capture with µs stamps,
/// the layout net::PcapWriter writes.
const std::string& quicscan_capture() {
  static const std::string image = [] {
    std::string out;
    auto put = [&](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<char>(v >> (8 * i)));
      }
    };
    for (const std::uint32_t word :
         {net::kPcapMagicMicros, 2u | 4u << 16, 0u, 0u, 65535u,
          net::kLinktypeRaw}) {
      put(word);
    }
    const auto second = util::kSecond.count();
    for (const auto& batch : mix_batches(Mix::kQuicScan)) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto view = batch.view(i);
        const auto size = static_cast<std::uint32_t>(view.data.size());
        put(static_cast<std::uint32_t>(view.timestamp.count() / second));
        put(static_cast<std::uint32_t>(view.timestamp.count() % second));
        put(size);
        put(size);
        out.append(view.data.begin(), view.data.end());
      }
    }
    return out;
  }();
  return image;
}

// PcapReader::next() over the QUIC-scan capture, from memory: the time
// per iteration is the cost of reading one record. Reopening the capture
// at its end is not timed.
void BM_PcapNext(benchmark::State& state) {
  const auto& image = quicscan_capture();
  std::unique_ptr<MemoryBuf> buf;
  std::unique_ptr<std::istream> in;
  std::unique_ptr<net::PcapReader> reader;
  auto reopen = [&] {
    reader.reset();
    buf = std::make_unique<MemoryBuf>(image);
    in = std::make_unique<std::istream>(buf.get());
    reader = std::make_unique<net::PcapReader>(*in);
  };
  reopen();
  for (auto _ : state) {
    auto packet = reader->next();
    if (!packet) {
      state.PauseTiming();
      reopen();
      state.ResumeTiming();
      packet = reader->next();
    }
    benchmark::DoNotOptimize(packet->data.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcapNext);

void BM_RegistryLookup(benchmark::State& state) {
  static const auto registry = asdb::AsRegistry::synthetic({}, 9);
  util::Rng rng(8);
  std::vector<net::Ipv4Address> addresses;
  for (int i = 0; i < 1024; ++i) {
    addresses.push_back(net::Ipv4Address(static_cast<std::uint32_t>(
        rng.next())));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.lookup(addresses[i++ & 1023]));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_UdpBuildAndDecode(benchmark::State& state) {
  util::Rng rng(10);
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(1, 2, 3, 4);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  const auto payload = rng.bytes(1200);
  for (auto _ : state) {
    const auto packet = net::build_udp(ip, 443, 40000, payload);
    benchmark::DoNotOptimize(net::decode_ipv4(packet));
  }
}
BENCHMARK(BM_UdpBuildAndDecode);

// One TCP SYN-ACK (the generator's commonest packet) written in place
// into a reused buffer; the sequence number changes per iteration.
void BM_BuildTcp(benchmark::State& state) {
  net::Ipv4Header ip;
  ip.src = net::Ipv4Address::from_octets(142, 250, 0, 1);
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  ip.ttl = 57;
  net::TcpInfo tcp;
  tcp.src_port = 443;
  tcp.dst_port = 40000;
  tcp.flags = net::TcpFlags::kSyn | net::TcpFlags::kAck;
  std::array<std::uint8_t, 40> out{};
  std::uint32_t seq = static_cast<std::uint32_t>(util::Rng(13).next());
  for (auto _ : state) {
    tcp.seq = seq++;
    tcp.ack = seq;
    benchmark::DoNotOptimize(net::write_tcp(out, ip, tcp));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BuildTcp);

// RFC 1071 sum over an IPv4 header (20) and a padded QUIC Initial (1232).
void BM_InternetChecksum(benchmark::State& state) {
  const auto data =
      util::Rng(14).bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.data());
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1232);

// The telescope generator alone on gen_backscatter's shape: a /16 day,
// research scanners off, 2,400 TCP/ICMP floods. One iteration fills one
// default batch; items/sec is packets/sec. Rebuilding the generator at
// the end of the day is not timed.
void BM_Generator_Backscatter(benchmark::State& state) {
  auto config = telescope::ScenarioConfig::april2021(1, 1);
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 16};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = 2400;
  auto make = [&] {
    return std::make_unique<telescope::TelescopeGenerator>(
        config, bench::registry(), bench::deployment());
  };
  auto generator = make();
  net::RecordBatch batch;
  std::int64_t packets = 0;
  for (auto _ : state) {
    if (generator->next_batch(batch) == 0) {
      state.PauseTiming();
      generator = make();
      state.ResumeTiming();
      generator->next_batch(batch);
    }
    packets += static_cast<std::int64_t>(batch.size());
    benchmark::DoNotOptimize(batch.view(batch.size() - 1).data.data());
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_Generator_Backscatter)->Unit(benchmark::kMicrosecond);

void BM_GquicParse(benchmark::State& state) {
  util::Rng rng(11);
  const auto packet = quic::build_gquic_server_response(
      quic::ConnectionId(rng.bytes(8)), 42, 300, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quic::parse_gquic_packet(packet));
  }
}
BENCHMARK(BM_GquicParse);

void BM_TransportParamsRoundTrip(benchmark::State& state) {
  util::Rng rng(12);
  const auto params = quic::TransportParameters::typical_client(
      quic::ConnectionId(rng.bytes(8)));
  for (auto _ : state) {
    const auto encoded = quic::encode_transport_parameters(params);
    benchmark::DoNotOptimize(quic::parse_transport_parameters(encoded));
  }
}
BENCHMARK(BM_TransportParamsRoundTrip);

void BM_ServerSim_Datagram(benchmark::State& state) {
  server::ServerConfig config;
  config.workers = 128;
  server::QuicServerSim sim(config);
  server::ReplayConfig replay;
  replay.packets = 1u << 20;
  replay.pps = 1e9;  // back-to-back
  server::RecordedFlood flood(replay);
  auto record = flood.next();
  for (auto _ : state) {
    if (!record) {
      flood.rewind();
      record = flood.next();
    }
    sim.on_datagram(record->time, record->datagram, record->source);
    record = flood.next();
  }
}
BENCHMARK(BM_ServerSim_Datagram);

// End-to-end analysis (classify + hourly binning + sessionize + detect)
// on a one-day cut of the fig06 scenario, fed one RawPacket at a time
// through ParallelPipeline::consume(). Arg(N) runs N shards/threads.
// items/sec is packets/sec.
struct Fig06Workload {
  std::vector<net::RawPacket> packets;
  core::PipelineOptions options;
};

const Fig06Workload& fig06_workload() {
  static const Fig06Workload workload = [] {
    const auto config =
        bench::light_scenario({.days = 1, .telescope_bits = 18,
                               .common_attacks_per_day = 600});
    Fig06Workload out;
    out.options = bench::pipeline_options(config);
    telescope::TelescopeGenerator generator(config, bench::registry(),
                                            bench::deployment());
    generator.generate([&](const net::RawPacket& packet) {
      out.packets.push_back(packet);
    });
    return out;
  }();
  return workload;
}

void run_fig06(benchmark::State& state, const core::PipelineOptions& options) {
  const auto& workload = fig06_workload();
  const auto shards = static_cast<std::size_t>(state.range(0));
  core::ParallelPipeline pipeline(options, shards);
  for (const auto& packet : workload.packets) pipeline.consume(packet);
  benchmark::DoNotOptimize(pipeline.analyze_attacks());
}

void BM_Pipeline_Fig06(benchmark::State& state) {
  const auto& workload = fig06_workload();
  for (auto _ : state) run_fig06(state, workload.options);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.packets.size()));
  state.SetLabel("parallel");
}
BENCHMARK(BM_Pipeline_Fig06)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same workload with the obs sinks attached (a live metrics registry and
// a tracer) — the acceptance gate for "instrumentation is near-free":
// compare against the matching BM_Pipeline_Fig06 arg; the delta must stay
// under 5% (recorded in EXPERIMENTS.md).
void BM_Pipeline_Fig06_Observed(benchmark::State& state) {
  const auto& workload = fig06_workload();
  static obs::MetricsRegistry registry;
  obs::Tracer tracer;
  auto options = workload.options;
  options.obs.metrics = &registry;
  options.obs.tracer = &tracer;
  for (auto _ : state) {
    tracer.clear();  // keep span memory bounded across iterations
    run_fig06(state, options);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.packets.size()));
  state.SetLabel("parallel+obs");
}
BENCHMARK(BM_Pipeline_Fig06_Observed)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One obs::Sampler pass (the 1 s bridge into the /tsdb history) over the
// registry `monitor --live` builds at Arg(0) shards: its LiveReceiver,
// wall-clocked ShardedOnlineDetector and Sampler register the counters,
// gauges and histograms, each given a value. Arg(1) copies of every
// metric scale the series count toward the default store's 512-series
// cap; the store keeps default_tiers().
// Arg(2) is the idle time before each pass in ms: 0 runs the passes back
// to back on a warm cache, 1000 is the sampler's cadence, after which
// the caches are cold. `series` is the series one pass writes.
void BM_Sampler_Pass(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  obs::MetricsRegistry metrics;
  net::live::LiveReceiver receiver(
      {.shards = shards, .obs = {.metrics = &metrics}});
  core::ShardedOnlineDetectorConfig detector_config;
  detector_config.shards = shards;
  detector_config.detector.obs.metrics = &metrics;
  detector_config.detector.wall_clock = net::live::wall_clock_us;
  core::ShardedOnlineDetector detector(detector_config);
  obs::TimeSeriesStore store;
  std::uint64_t now_us = 0;
  obs::Sampler sampler({.metrics = &metrics,
                        .store = &store,
                        .clock = [&] { return now_us += 1'000'000; }});
  const auto counters = metrics.counter_snapshot();
  const auto gauges = metrics.gauge_snapshot();
  const auto histograms = metrics.histogram_snapshot();
  for (std::int64_t copy = 0; copy < state.range(1); ++copy) {
    const auto suffix = copy == 0 ? "" : ".copy" + std::to_string(copy);
    for (const auto& c : counters) metrics.counter(c.first + suffix).add(9);
    for (const auto& g : gauges) metrics.gauge(g.first + suffix).set(9);
    for (const auto& totals : histograms) {
      auto& h = metrics.histogram(totals.name + suffix);
      for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 37);
    }
  }
  sampler.sample_once();  // creates every series
  const std::chrono::milliseconds idle(state.range(2));
  for (auto _ : state) {
    if (idle.count() > 0) {
      state.PauseTiming();
      std::this_thread::sleep_for(idle);
      state.ResumeTiming();
    }
    sampler.sample_once();
  }
  if (store.series_dropped() != 0) state.SkipWithError("series dropped");
  state.counters["series"] = static_cast<double>(store.series_count());
}
BENCHMARK(BM_Sampler_Pass)
    ->Args({1, 1, 0})
    ->Args({4, 1, 0})
    ->Args({4, 8, 0})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Sampler_Pass)
    ->Args({1, 1, 1000})
    ->Args({4, 1, 1000})
    ->Args({4, 8, 1000})
    ->Iterations(5)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace quicsand

BENCHMARK_MAIN();
