// Shared setup for the figure/table harnesses.
//
// Every bench binary regenerates one table or figure of the paper from a
// synthetic telescope scenario. Scale knobs (window length, telescope
// prefix, seed) come from environment variables so the same binaries can
// run a quick CI-sized reproduction or a full-scale one:
//
//   QUICSAND_DAYS  — window length in days, >= 1 (default: per-bench)
//   QUICSAND_SEED  — scenario seed (default 2021)
//   QUICSAND_TELESCOPE_BITS — telescope prefix length, <= 32 (default
//     per-bench)
//   QUICSAND_THREADS — analysis shards/threads, >= 1 (default: hardware).
//     Every analysis product is identical for any value, so this only
//     affects wall-clock time.
//
// A value that does not parse or is out of range falls back to the
// default; the `scale:` banner shows what a run actually used.
//
// Every harness also takes observability flags (parsed by init()):
//
//   --metrics-out FILE — write a JSON metrics snapshot after the run
//   --trace-out FILE   — write a chrome://tracing / Perfetto trace
//
// Each binary prints its effective scale and, where the paper reports a
// number, a "paper vs measured" line. Performance is measured by
// perfbench/run.py and the micro-benchmarks, not by these harnesses.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "asdb/registry.hpp"
#include "core/parallel_pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "threat/intel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace quicsand::bench {

/// Parse the common observability flags (--metrics-out, --trace-out).
/// Prints usage and exits(2) on unknown flags or missing values. Call
/// first in every harness main().
void init(int argc, char** argv);

/// Write the process-wide metrics/trace sinks that run_scenario attaches
/// to the pipeline, as --metrics-out/--trace-out requested. Call after
/// run(); a no-op when no output was requested.
void write_obs_outputs();

/// Environment overrides with defaults.
int env_days(int default_days);
std::uint64_t env_seed();
int env_telescope_bits(int default_bits);
std::size_t env_threads();  ///< QUICSAND_THREADS, default hardware

const asdb::AsRegistry& registry();
const scanner::Deployment& deployment();

/// Scenario for the event-level figures (3-13): no research scanners
/// (the paper removes them first), a smaller telescope, and a background
/// TCP/ICMP attack rate reduced by the factor reported by the binary.
struct LightScenarioOptions {
  int days = 4;
  int telescope_bits = 16;
  double common_attacks_per_day = 600;  ///< paper-scale is 9400/day
};
telescope::ScenarioConfig light_scenario(const LightScenarioOptions& options);

/// One fully generated + analyzed scenario. All harnesses run the
/// sharded ParallelPipeline, whose products equal the serial reference
/// (Classifier + build_sessions + detect_attacks) at every shard count;
/// tests/core_parallel_pipeline_test.cpp enforces this.
struct AnalyzedScenario {
  telescope::ScenarioConfig config;
  telescope::GroundTruth truth;
  std::unique_ptr<core::ParallelPipeline> pipeline;
  core::AttackAnalysis analysis;
  threat::IntelDb intel;
  double generate_seconds = 0;
  double analyze_seconds = 0;
};

/// The pipeline options run_scenario uses for `config`.
core::PipelineOptions pipeline_options(
    const telescope::ScenarioConfig& config);

AnalyzedScenario run_scenario(const telescope::ScenarioConfig& config);

/// Print the standard scale banner.
void print_scale(const telescope::ScenarioConfig& config);

/// Print the trailing `[generate …, analyze …, peak … MB]` line: wall
/// times and the process's peak resident set (VmHWM, in MiB).
void print_timing(const AnalyzedScenario& scenario);

/// Print a "paper vs measured" comparison row.
void compare(const std::string& metric, const std::string& paper,
             const std::string& measured);

/// Render a CDF as quantile rows.
void print_cdf(const std::string& title, const util::Cdf& cdf,
               const std::string& unit);

}  // namespace quicsand::bench
