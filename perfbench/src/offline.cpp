// Offline workloads: gen_backscatter (telescope generator straight into
// the sharded pipeline) and pcap_quicscan (an in-memory pcap image
// replayed through net::PcapReader). Both end in the same analysis
// products: sessions, QUIC and TCP/ICMP attacks, the fig04 timeout
// sweep, multi-vector correlation and the victim report.
//
// End-to-end pass: the sharded core::ParallelPipeline at offline_shards()
// and at 1 shard, timed from the first fill() to the last product.
//
// Traced run: per round, an untraced and a traced 1-shard pass (their
// ratio is the tracing overhead), a traced offline_shards() pass, and a
// serial decomposition that calls each layer's public function on the
// same input, one layer at a time, under its own span. The residual is
// the untraced 1-shard time minus the sum of the layer self times.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/correlate.hpp"
#include "core/dos.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/sessions.hpp"
#include "core/victims.hpp"
#include "inputs.hpp"
#include "net/headers.hpp"
#include "quic/dissector.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qs::core::DetectedAttack;
using qs::core::PacketRecord;
using qs::core::Session;
using qs::obs::Span;
using qs::obs::Tracer;

constexpr std::uint16_t kQuicPort = 443;

const std::vector<qs::util::Duration>& sweep_timeouts() {
  static const std::vector<qs::util::Duration> timeouts = [] {
    std::vector<qs::util::Duration> out;
    for (const int minutes : {1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 45, 60}) {
      out.push_back(minutes * qs::util::kMinute);
    }
    out.push_back(std::numeric_limits<qs::util::Duration>::max());
    return out;
  }();
  return timeouts;
}

constexpr qs::asdb::Asn kProviders[] = {qs::asdb::AsRegistry::kGoogle,
                                        qs::asdb::AsRegistry::kFacebook};

/// Everything a pass produces that the figures read.
struct Products {
  std::uint64_t packets = 0;
  std::uint64_t records = 0;  ///< kept for analysis
  std::vector<Session> request_sessions;
  std::vector<Session> response_sessions;
  std::vector<Session> common_sessions;
  std::vector<DetectedAttack> quic_attacks;
  std::vector<DetectedAttack> common_attacks;
  std::vector<std::pair<qs::util::Duration, std::uint64_t>> sweep;
  std::uint64_t concurrent = 0, sequential = 0, isolated = 0;
  std::size_t victims = 0;
  std::size_t provider_attacks = 0;
};

/// Names of the parts of `got` that differ from `want`.
std::vector<std::string> differences(const Products& got,
                                     const Products& want) {
  std::vector<std::string> out;
  if (got.packets != want.packets) out.push_back("packets");
  if (got.records != want.records) out.push_back("records");
  if (got.request_sessions != want.request_sessions) {
    out.push_back("request_sessions");
  }
  if (got.response_sessions != want.response_sessions) {
    out.push_back("response_sessions");
  }
  if (got.common_sessions != want.common_sessions) {
    out.push_back("common_sessions");
  }
  if (got.quic_attacks != want.quic_attacks) out.push_back("quic_attacks");
  if (got.common_attacks != want.common_attacks) {
    out.push_back("common_attacks");
  }
  if (got.sweep != want.sweep) out.push_back("timeout_sweep");
  if (got.concurrent != want.concurrent || got.sequential != want.sequential ||
      got.isolated != want.isolated) {
    out.push_back("correlation");
  }
  if (got.victims != want.victims ||
      got.provider_attacks != want.provider_attacks) {
    out.push_back("victims");
  }
  return out;
}

void correlate_products(Products& out) {
  const auto report =
      qs::core::correlate_attacks(out.quic_attacks, out.common_attacks);
  out.concurrent = report.concurrent;
  out.sequential = report.sequential;
  out.isolated = report.isolated;
}

void victim_products(const World& world, Products& out) {
  const auto report = qs::core::analyze_victims(
      out.quic_attacks, world.registry, world.deployment);
  const auto profiles = qs::core::profile_providers(
      out.quic_attacks, out.response_sessions, world.registry, kProviders);
  out.victims = report.victims.size();
  out.provider_attacks = 0;
  for (const auto& profile : profiles) out.provider_attacks += profile.attacks;
}

struct PipelinePass {
  double total_s = 0;
  double ingest_s = 0;  ///< first fill() to finish() returning
  double cpu_s = 0;     ///< process CPU time over total_s, every thread
  double peak_rss_mb = 0;
};

/// One end-to-end pass through the sharded pipeline. The timed window
/// covers pipeline construction (its worker threads too), every fill()
/// and consume_batch(), finish(), and every analysis product.
PipelinePass pipeline_pass(PacketSource& source, const World& world,
                           const qs::core::PipelineOptions& base,
                           std::size_t shards, Tracer* tracer,
                           Products& out) {
  source.prepare();
  auto options = base;
  options.obs.tracer = tracer;
  const double rss_before = begin_memory_window();
  PipelinePass pass;
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  {
    qs::core::ParallelPipeline pipeline(options, shards);
    {
      Span span(tracer, "core.ingest");
      auto batch = pipeline.acquire_batch();
      for (;;) {
        std::size_t n = 0;
        {
          Span fill(tracer, source.layer());
          n = source.fill(batch);
        }
        if (n == 0) break;
        out.packets += n;
        Span consume(tracer, "core.consume_batch");
        pipeline.consume_batch(std::move(batch));
        batch = pipeline.acquire_batch();
      }
      Span finish(tracer, "core.finish");
      pipeline.finish();
    }
    pass.ingest_s = seconds_since(start);
    out.records = pipeline.records().size();
    {
      Span span(tracer, "core.analyze_attacks");
      auto analysis = pipeline.analyze_attacks();
      out.response_sessions = std::move(analysis.response_sessions);
      out.common_sessions = std::move(analysis.common_sessions);
      out.quic_attacks = std::move(analysis.quic_attacks);
      out.common_attacks = std::move(analysis.common_attacks);
    }
    {
      Span span(tracer, "core.request_sessions");
      out.request_sessions =
          pipeline.request_sessions(options.session_timeout);
    }
    {
      Span span(tracer, "core.session_timeout_sweep");
      out.sweep = pipeline.session_timeout_sweep(sweep_timeouts());
    }
    {
      Span span(tracer, "core.correlate_attacks");
      correlate_products(out);
    }
    {
      Span span(tracer, "core.analyze_victims");
      victim_products(world, out);
    }
    pass.total_s = seconds_since(start);
    pass.cpu_s = process_cpu_s() - cpu_start;
  }
  pass.peak_rss_mb = peak_rss_mb() - rss_before;
  return pass;
}

/// Layer self times of one serial decomposition pass.
struct Decomposition {
  LayerTime source, decode, dissect, classify, hourly, keep;
  LayerTime sessionize_request, sessionize_response, sessionize_common;
  LayerTime detect, merge, gap_profile, correlate, victims;
  std::uint64_t quic_payloads = 0;  ///< UDP/443 payloads dissected
  std::uint64_t quic_packets = 0;   ///< QUIC packets the dissector found
  std::uint64_t classified = 0;
  qs::core::ClassifierStats stats;
};

/// Serial reference and per-layer decomposition in one: a Classifier,
/// build_sessions, detect_attacks and the other analyses called one
/// layer at a time over the same input. The decode and dissect loops
/// only time those layers on their own; classify() repeats them inside.
/// The one-part merges mirror what the pipeline does at 1 shard.
void serial_pass(PacketSource& source, const World& world,
                 const qs::core::PipelineOptions& options, Tracer* tracer,
                 Decomposition& d, Products& out) {
  source.prepare();
  qs::core::Classifier classifier({options.research_prefixes});
  const auto hours = static_cast<std::size_t>(options.days) * 24;
  std::vector<std::vector<std::uint64_t>> hourly(
      qs::core::kHourlySlotCount, std::vector<std::uint64_t>(hours, 0));
  std::vector<PacketRecord> records;
  std::vector<PacketRecord> batch_records;
  std::vector<std::span<const std::uint8_t>> payloads;
  qs::net::RecordBatch batch;
  for (;;) {
    std::size_t n = 0;
    {
      LayerScope scope(tracer, source.layer(), d.source);
      n = source.fill(batch);
    }
    if (n == 0) break;
    out.packets += n;
    payloads.clear();
    {
      LayerScope scope(tracer, "net.decode_ipv4", d.decode);
      for (std::size_t i = 0; i < n; ++i) {
        const auto decoded = qs::net::decode_ipv4(batch.view(i).data);
        if (!decoded || !decoded->is_udp()) continue;
        const auto& udp = decoded->udp();
        if (udp.src_port == kQuicPort || udp.dst_port == kQuicPort) {
          payloads.push_back(udp.payload);
        }
      }
    }
    {
      LayerScope scope(tracer, "quic.dissect_udp_payload", d.dissect);
      for (const auto payload : payloads) {
        d.quic_packets += qs::quic::dissect_udp_payload(payload).packets.size();
      }
    }
    d.quic_payloads += payloads.size();
    batch_records.clear();
    {
      LayerScope scope(tracer, "core.classify", d.classify);
      for (std::size_t i = 0; i < n; ++i) {
        const auto view = batch.view(i);
        if (auto record = classifier.classify(view.timestamp, view.data)) {
          batch_records.push_back(*record);
        }
      }
    }
    d.classified += batch_records.size();
    {
      LayerScope scope(tracer, "core.bin_hourly", d.hourly);
      for (const auto& record : batch_records) {
        qs::core::bin_hourly(
            record, options.window_start, hours,
            [&](qs::core::HourlySlot slot, std::size_t hour) {
              ++hourly[static_cast<std::size_t>(slot)][hour];
            });
      }
    }
    {
      LayerScope scope(tracer, "core.keep_for_analysis", d.keep);
      for (const auto& record : batch_records) {
        if (qs::core::keep_for_analysis(record)) records.push_back(record);
      }
    }
  }
  out.records = records.size();
  d.stats = classifier.stats();

  const auto timeout = options.session_timeout;
  {
    LayerScope scope(tracer, "core.build_sessions.request",
                     d.sessionize_request);
    out.request_sessions = qs::core::build_sessions(
        records, timeout, qs::core::quic_request_filter());
  }
  {
    LayerScope scope(tracer, "core.build_sessions.response",
                     d.sessionize_response);
    out.response_sessions = qs::core::build_sessions(
        records, timeout, qs::core::quic_response_filter());
  }
  {
    LayerScope scope(tracer, "core.build_sessions.common",
                     d.sessionize_common);
    out.common_sessions = qs::core::build_sessions(
        records, timeout, qs::core::common_backscatter_filter());
  }
  {
    LayerScope scope(tracer, "core.detect_attacks", d.detect);
    out.quic_attacks =
        qs::core::detect_attacks(out.response_sessions, options.thresholds);
    out.common_attacks =
        qs::core::detect_attacks(out.common_sessions, options.thresholds);
  }
  {
    LayerScope scope(tracer, "core.merge", d.merge);
    auto one_part = [](std::vector<Session>& sessions) {
      std::vector<std::vector<Session>> parts;
      parts.push_back(std::move(sessions));
      return qs::core::merge_sessions(std::move(parts));
    };
    auto attacks_part = [](std::vector<DetectedAttack>& attacks) {
      std::vector<std::vector<DetectedAttack>> parts;
      parts.push_back(std::move(attacks));
      return parts;
    };
    auto response = one_part(out.response_sessions);
    out.quic_attacks = qs::core::merge_attacks(attacks_part(out.quic_attacks),
                                               response.global_index);
    out.response_sessions = std::move(response.sessions);
    auto common = one_part(out.common_sessions);
    out.common_attacks = qs::core::merge_attacks(
        attacks_part(out.common_attacks), common.global_index);
    out.common_sessions = std::move(common.sessions);
    out.request_sessions = one_part(out.request_sessions).sessions;
  }
  {
    LayerScope scope(tracer, "core.gap_profile", d.gap_profile);
    out.sweep = qs::core::sweep_counts(
        qs::core::collect_gap_profile(records,
                                      qs::core::sanitized_quic_filter()),
        sweep_timeouts());
  }
  {
    LayerScope scope(tracer, "core.correlate_attacks", d.correlate);
    correlate_products(out);
  }
  {
    LayerScope scope(tracer, "core.analyze_victims", d.victims);
    victim_products(world, out);
  }
}

/// A workload's inputs after set-up: the world, the scenario and (pcap
/// only) the image, plus the source that replays them.
struct OfflineSetup {
  std::unique_ptr<World> world;
  qs::telescope::ScenarioConfig config;
  std::string image;
  std::unique_ptr<PacketSource> source;
};

enum class OfflineKind { kGenerated, kPcap };

void set_up(OfflineKind kind, std::uint64_t seed, OfflineSetup& setup) {
  setup.source.reset();
  setup.image.clear();
  setup.image.shrink_to_fit();
  setup.world = make_world();
  if (kind == OfflineKind::kGenerated) {
    setup.config = backscatter_scenario(seed);
    setup.source = std::make_unique<GeneratorSource>(
        setup.config, *setup.world, kBackscatterPackets);
  } else {
    setup.config = quicscan_scenario(seed);
    setup.image =
        make_pcap_image(setup.config, *setup.world, kQuicscanPackets);
    setup.source = std::make_unique<PcapSource>(setup.image);
  }
  // Planning the scenario (generator) or parsing the header (reader) is
  // set-up work too; every timed pass repeats it untimed.
  setup.source->prepare();
}

void check(RunResult& result, const char* pass, const Products& got,
           const Products& want) {
  const auto diff = differences(got, want);
  if (diff.empty()) return;
  std::string what = std::string(pass) + " pass differs from the serial "
                                         "reference in:";
  for (const auto& part : diff) what += " " + part;
  result.mismatch(std::move(what), got.packets);
}

double ns(const LayerTime& t) { return static_cast<double>(t.ns); }

/// Per-layer self times (ns) of a decomposition, in report order.
std::vector<std::pair<const char*, double>> self_times(const Decomposition& d,
                                                       const char* source) {
  return {
      {source, ns(d.source)},
      {"net.decode_ipv4", ns(d.decode)},
      {"quic.dissect_udp_payload", ns(d.dissect)},
      {"core.classify (self, incl. keep)",
       ns(d.classify) - ns(d.decode) - ns(d.dissect) + ns(d.keep)},
      {"core.bin_hourly", ns(d.hourly)},
      {"core.build_sessions.request", ns(d.sessionize_request)},
      {"core.build_sessions.response", ns(d.sessionize_response)},
      {"core.build_sessions.common", ns(d.sessionize_common)},
      {"core.detect_attacks", ns(d.detect)},
      {"core.merge", ns(d.merge)},
      {"core.gap_profile+sweep", ns(d.gap_profile)},
      {"core.correlate_attacks", ns(d.correlate)},
      {"core.analyze_victims", ns(d.victims)},
  };
}

RunResult run_offline(OfflineKind kind, const Args& args, Tracer* tracer) {
  RunResult result;
  const std::size_t shards = offline_shards();

  std::vector<double> setup_s;
  OfflineSetup setup;
  for (const auto first = Clock::now();
       setup_s.size() < kSetupRepeats ||
       seconds_since(first) < kSetupSeconds;) {
    const double start = process_cpu_s();
    set_up(kind, args.seed, setup);
    setup_s.push_back(process_cpu_s() - start);
  }
  const auto options = pipeline_options(setup.config, *setup.world);
  auto& source = *setup.source;

  Products reference;
  Decomposition layout;
  serial_pass(source, *setup.world, options, nullptr, layout, reference);
  const auto packets = reference.packets;
  std::printf("input: %llu packets, %.1f%% UDP/443, %.1f%% research QUIC, "
              "by class:",
              static_cast<unsigned long long>(packets),
              100.0 * static_cast<double>(layout.quic_payloads) /
                  static_cast<double>(packets),
              100.0 * static_cast<double>(layout.stats.research) /
                  static_cast<double>(packets));
  for (std::size_t c = 0; c < qs::core::kTrafficClassCount; ++c) {
    std::printf(" %s=%llu",
                qs::core::traffic_class_name(
                    static_cast<qs::core::TrafficClass>(c)),
                static_cast<unsigned long long>(layout.stats.by_class[c]));
  }
  std::printf(
      "\n%llu kept for analysis; sessions %zu request, %zu response, %zu "
      "common; attacks %zu QUIC, %zu TCP/ICMP\n",
      static_cast<unsigned long long>(reference.records),
      reference.request_sessions.size(), reference.response_sessions.size(),
      reference.common_sessions.size(), reference.quic_attacks.size(),
      reference.common_attacks.size());

  auto run_checked = [&](const char* name, std::size_t pass_shards,
                         Tracer* pass_tracer) {
    Products products;
    const auto pass = pipeline_pass(source, *setup.world, options,
                                    pass_shards, pass_tracer, products);
    result.attempted += products.packets;
    check(result, name, products, reference);
    return pass;
  };

  const auto start = Clock::now();
  if (!args.trace) {
    std::vector<double> total_n, total_1, cpu_n, cpu_1, ingest_n, ingest_1,
        rss;
    do {
      const auto n = run_checked("nshard", shards, nullptr);
      total_n.push_back(n.total_s);
      cpu_n.push_back(n.cpu_s);
      ingest_n.push_back(n.ingest_s);
      rss.push_back(n.peak_rss_mb);
      const auto one = run_checked("1shard", 1, nullptr);
      total_1.push_back(one.total_s);
      cpu_1.push_back(one.cpu_s);
      ingest_1.push_back(one.ingest_s);
    } while (seconds_since(start) < args.seconds);
    // Throughput per CPU-second, not per wall second: on a shared host
    // the hypervisor takes the CPU away for seconds at a time, which
    // stretches wall time by up to half but not the CPU time the kernel
    // accounts. Throughput is the median pass; memory the largest, since
    // whichever arena a worker happens to allocate from moves a pass's
    // peak between two levels.
    const double p = static_cast<double>(packets);
    result.add("setup_s", median(setup_s), "s");
    result.add("pkts_per_cpu_s", p / median(cpu_n), "1/s");
    result.add("pkts_per_cpu_s.1shard", p / median(cpu_1), "1/s");
    result.add("peak_rss_mb", quantile(rss, 1), "MB");
    result.info("pkts_per_s", p / median(total_n), "1/s");
    result.info("pkts_per_s.1shard", p / median(total_1), "1/s");
    result.info("passes_per_shard_count", static_cast<double>(total_n.size()),
                "count");
    result.info("wall_s.nshard", median(total_n), "s");
    result.info("wall_s.1shard", median(total_1), "s");
    result.info("cpu_s.nshard", median(cpu_n), "s");
    result.info("cpu_s.1shard", median(cpu_1), "s");
    result.info("ingest_s.nshard", median(ingest_n), "s");
    result.info("ingest_s.1shard", median(ingest_1), "s");
    result.info("shards", static_cast<double>(shards), "count");
    return result;
  }

  // Traced run: medians over rounds of every per-layer quantity.
  std::vector<double> untraced_1, traced_1, ingest_1, ingest_n;
  std::vector<std::vector<double>> layer_ns;
  Decomposition last;
  do {
    if (tracer != nullptr) tracer->clear();
    // The untraced pass is what the layer self times reconcile against.
    const auto untraced = run_checked("1shard", 1, nullptr);
    untraced_1.push_back(untraced.total_s);
    ingest_1.push_back(untraced.ingest_s);
    traced_1.push_back(run_checked("traced 1shard", 1, tracer).total_s);
    ingest_n.push_back(run_checked("traced nshard", shards, tracer).ingest_s);
    Decomposition d;
    Products products;
    serial_pass(source, *setup.world, options, tracer, d, products);
    check(result, "decomposition", products, reference);
    const auto times = self_times(d, source.layer());
    layer_ns.resize(times.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
      layer_ns[i].push_back(times[i].second);
    }
    last = d;
  } while (seconds_since(start) < args.seconds);

  const double p = static_cast<double>(packets);
  const double kept = static_cast<double>(reference.records);
  const auto names = self_times(last, source.layer());
  std::vector<double> self(names.size());
  double sum_ns = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    self[i] = median(layer_ns[i]);
    sum_ns += self[i];
  }
  const double e2e_ns = median(untraced_1) * 1e9;
  const double residual_ns = e2e_ns - sum_ns;
  // Split the residual at the end of ingest: before it, hand-off cost
  // net of the overlap of feeding with classification; after it, shard
  // partitioning and merges.
  double ingest_layers_ns = 0;
  for (std::size_t i = 0; i <= 4; ++i) ingest_layers_ns += self[i];
  const double ingest_residual_ns = median(ingest_1) * 1e9 - ingest_layers_ns;

  std::printf(
      "\nreconciliation (1 shard, medians of %zu rounds): layer self time "
      "vs end-to-end\n",
      untraced_1.size());
  std::printf("  %-36s %12s %9s\n", "layer", "self ms", "share");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf("  %-36s %12.3f %8.2f%%\n", names[i].first, self[i] / 1e6,
                100.0 * self[i] / e2e_ns);
  }
  std::printf("  %-36s %12.3f %8.2f%%\n", "residual", residual_ns / 1e6,
              100.0 * residual_ns / e2e_ns);
  std::printf("  %-36s %12.3f %8.2f%%\n", "  of which ingest (hand-off-overlap)",
              ingest_residual_ns / 1e6, 100.0 * ingest_residual_ns / e2e_ns);
  std::printf("  %-36s %12.3f %8.2f%%\n", "  of which analysis (partition, merge)",
              (residual_ns - ingest_residual_ns) / 1e6,
              100.0 * (residual_ns - ingest_residual_ns) / e2e_ns);
  std::printf("  %-36s %12.3f %8.2f%%\n", "end-to-end, untraced",
              e2e_ns / 1e6, 100.0);
  std::printf("  %-36s %12.3f %+8.2f%%\n", "end-to-end, traced",
              median(traced_1) * 1e3,
              100.0 * (median(traced_1) * 1e9 / e2e_ns - 1.0));

  const bool generated = kind == OfflineKind::kGenerated;
  const double source_ns = self[0];
  const double dissect_base = static_cast<double>(last.quic_payloads);
  const double sessions_sd = static_cast<double>(
      reference.response_sessions.size() + reference.common_sessions.size());
  const double sessions_all = sessions_sd + static_cast<double>(
      reference.request_sessions.size());
  auto per = [](double value, double base) {
    return base > 0 ? value / base : 0.0;
  };
  result.add("telescope.generate_ns_per_pkt", generated ? source_ns / p : 0,
             "ns");
  result.add("net.pcap_read_ns_per_pkt", generated ? 0 : source_ns / p, "ns");
  result.add("net.decode_ns_per_pkt", self[1] / p, "ns");
  result.add("quic.dissect_ns_per_quic_pkt", per(self[2], dissect_base), "ns");
  result.add("core.classify_self_ns_per_pkt", self[3] / p, "ns");
  result.add("core.records_kept_ratio", kept / p, "ratio");
  result.add("core.ingest_ns_per_pkt.1shard", median(ingest_1) * 1e9 / p, "ns");
  result.add("core.ingest_ns_per_pkt.nshard", median(ingest_n) * 1e9 / p, "ns");
  result.add("core.handoff_ns_per_pkt", ingest_residual_ns / p, "ns");
  result.add("core.hourly_ns_per_record",
             per(self[4], static_cast<double>(last.classified)), "ns");
  result.add("core.sessionize_ns_per_record.request", per(self[5], kept),
             "ns");
  result.add("core.sessionize_ns_per_record.response", per(self[6], kept),
             "ns");
  result.add("core.sessionize_ns_per_record.common", per(self[7], kept), "ns");
  result.info("core.sessions.request",
             static_cast<double>(reference.request_sessions.size()), "count");
  result.info("core.sessions.response",
             static_cast<double>(reference.response_sessions.size()), "count");
  result.info("core.sessions.common",
             static_cast<double>(reference.common_sessions.size()), "count");
  result.add("core.detect_ns_per_session", per(self[8], sessions_sd), "ns");
  result.add("core.merge_ns_per_session", per(self[9], sessions_all), "ns");
  result.add("core.gap_profile_ns_per_record", per(self[10], kept), "ns");
  result.add("core.correlate_us", self[11] / 1e3, "us");
  result.add("core.victims_us", self[12] / 1e3, "us");
  result.add("core.residual_share", residual_ns / e2e_ns, "ratio");
  result.add("obs.trace_overhead_share",
             median(traced_1) * 1e9 / e2e_ns - 1.0, "ratio");
  result.info("quic.packets_per_udp443_payload",
              per(static_cast<double>(last.quic_packets), dissect_base),
              "ratio");
  result.info("e2e_ms.1shard.untraced", e2e_ns / 1e6, "ms");
  result.info("e2e_ms.1shard.traced", median(traced_1) * 1e3, "ms");
  result.info("layers_sum_ms", sum_ns / 1e6, "ms");
  result.info("rounds", static_cast<double>(untraced_1.size()), "count");
  return result;
}

}  // namespace

RunResult run_gen_backscatter(const Args& args, Tracer* tracer) {
  return run_offline(OfflineKind::kGenerated, args, tracer);
}

RunResult run_pcap_quicscan(const Args& args, Tracer* tracer) {
  return run_offline(OfflineKind::kPcap, args, tracer);
}

}  // namespace perfbench
