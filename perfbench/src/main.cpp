// QUICsand benchmark binary.
//
//   quicsand_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--commit ID] [--out-dir DIR]
//
// Workloads: gen_backscatter, pcap_quicscan, live_loopback. Prints a
// human-readable report, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics for
// --trace 0, per-layer metrics for --trace 1). With --out-dir it also
// writes the results with run metadata and, for traced runs, the
// chrome://tracing JSON of the spans. Exits 1 when an output check
// failed, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The per-layer metrics every traced run reports, in output order; a
/// workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"telescope.generate_ns_per_pkt", "ns"},
      {"net.pcap_read_ns_per_pkt", "ns"},
      {"net.decode_ns_per_pkt", "ns"},
      {"quic.dissect_ns_per_quic_pkt", "ns"},
      {"core.classify_self_ns_per_pkt", "ns"},
      {"core.records_kept_ratio", "ratio"},
      {"core.ingest_ns_per_pkt.1shard", "ns"},
      {"core.ingest_ns_per_pkt.nshard", "ns"},
      {"core.handoff_ns_per_pkt", "ns"},
      {"core.hourly_ns_per_record", "ns"},
      {"core.sessionize_ns_per_record.request", "ns"},
      {"core.sessionize_ns_per_record.response", "ns"},
      {"core.sessionize_ns_per_record.common", "ns"},
      {"core.gap_profile_ns_per_record", "ns"},
      {"core.detect_ns_per_session", "ns"},
      {"core.merge_ns_per_session", "ns"},
      {"core.correlate_us", "us"},
      {"core.victims_us", "us"},
      {"core.residual_share", "ratio"},
      {"core.online_ns_per_record", "ns"},
      {"core.online_open_sessions_peak", "count"},
      {"live.callback_ns_per_pkt", "ns"},
      {"live.shard_busy_share", "ratio"},
      {"live.dropped_ring", "count"},
      {"live.dropped_kernel", "count"},
      {"live.ring_high_water", "count"},
      {"live.sender_achieved_ratio", "ratio"},
      {"live.max_pps", "1/s"},
      {"live.delay_us.p50", "us"},
      {"live.delay_us.p99", "us"},
      {"live.alert_delay_ms.p50", "ms"},
      {"live.alert_delay_ms.p90", "ms"},
      {"obs.trace_overhead_share", "ratio"},
  };
  return metrics;
}

/// Order `result`'s metrics as per_layer_metrics() lists them, adding
/// the ones it lacks as 0.
void complete_per_layer(RunResult& result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : per_layer_metrics()) {
    Metric metric{name, 0, unit};
    for (const auto& have : result.metrics) {
      if (have.name == name) metric = have;
    }
    ordered.push_back(std::move(metric));
  }
  result.metrics = std::move(ordered);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload gen_backscatter|pcap_quicscan|"
               "live_loopback --seed N --seconds S --trace 0|1 "
               "[--commit ID] [--out-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold: every block of 128 KiB or more is mapped on
  // its own and unmapped on free, instead of glibc raising the threshold
  // after the first such free and keeping later blocks in fragmented
  // arenas. peak_rss_mb then follows live memory rather than allocator
  // history and thread timing.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto seed = quicsand::util::parse_u64(value);
      if (!seed) return usage(argv[0]);
      args.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = quicsand::util::parse_u64(value);
      if (!seconds || *seconds == 0) return usage(argv[0]);
      args.seconds = static_cast<double>(*seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage(argv[0]);
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);

  RunResult (*run)(const Args&, quicsand::obs::Tracer*) = nullptr;
  std::size_t shards = offline_shards();
  if (args.workload == "gen_backscatter") {
    run = run_gen_backscatter;
  } else if (args.workload == "pcap_quicscan") {
    run = run_pcap_quicscan;
  } else if (args.workload == "live_loopback") {
    run = run_live_loopback;
    shards = 2;
  } else {
    return usage(argv[0]);
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%d commit=%s "
              "build=%s nproc=%u shards=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.commit.c_str(), PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), shards);
  std::fflush(stdout);

  quicsand::obs::Tracer tracer;
  RunResult result = run(args, args.trace ? &tracer : nullptr);
  if (args.trace) complete_per_layer(result);

  std::printf("\n");
  print_metrics(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
                result.metrics);
  if (!result.extra.empty()) print_metrics("also measured:", result.extra);
  for (const auto& note : result.notes) {
    std::printf("CHECK FAILED: %s\n", note.c_str());
  }
  std::printf("output checks: %s (%llu attempted, %llu failed)\n",
              result.correct ? "pass" : "FAIL",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  if (const auto path = write_results_file(args, result, shards);
      !path.empty()) {
    std::printf("results: %s\n", path.c_str());
  }
  if (args.trace && !args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + ".seed" +
                             std::to_string(args.seed) + ".chrome.json";
    if (tracer.write_chrome_json_file(path)) {
      std::printf("trace: %s\n", path.c_str());
    }
  }
  if (result.attempted == 0) {
    // Nothing ran: report it as one failed operation.
    result.mismatch("no operation was attempted", 1);
    result.attempted = 1;
  }
  std::printf("%s\n", result_line(result).c_str());
  return result.correct ? 0 : 1;
}
