#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "util/parse.hpp"

namespace quicsand::bench {

namespace {

/// `name` parsed as an integer in [min, max]; anything else (unset,
/// garbage, out of range) yields `default_value`.
std::uint64_t env_u64(
    const char* name, std::uint64_t default_value, std::uint64_t min = 0,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* value = std::getenv(name);
  if (value == nullptr) return default_value;
  const auto parsed = util::parse_u64(value);
  if (!parsed || *parsed < min || *parsed > max) return default_value;
  return *parsed;
}

/// The process's peak resident set (VmHWM) in MiB, or 0 when
/// /proc/self/status cannot tell.
std::uint64_t peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const auto digits = line.find_first_of("0123456789");
    const auto end = line.find_first_not_of("0123456789", digits);
    if (digits == std::string::npos) return 0;
    const auto kib = util::parse_u64(line.substr(digits, end - digits));
    return kib ? *kib / 1024 : 0;
  }
  return 0;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct ObsOutputs {
  std::string metrics_out;
  std::string trace_out;
};

ObsOutputs& obs_outputs() {
  static ObsOutputs outputs;
  return outputs;
}

obs::MetricsRegistry& metrics() {
  static obs::MetricsRegistry registry;
  return registry;
}

obs::Tracer& tracer() {
  static obs::Tracer instance;
  return instance;
}

}  // namespace

void init(int argc, char** argv) {
  auto& outputs = obs_outputs();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--metrics-out") {
      outputs.metrics_out = value();
    } else if (arg == "--trace-out") {
      outputs.trace_out = value();
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--metrics-out FILE] [--trace-out FILE]\n";
      std::exit(2);
    }
  }
}

void write_obs_outputs() {
  const auto& outputs = obs_outputs();
  if (!outputs.metrics_out.empty()) {
    if (metrics().write_json_file(outputs.metrics_out)) {
      std::cout << "[metrics snapshot written to " << outputs.metrics_out
                << "]\n";
    } else {
      std::cerr << "cannot write " << outputs.metrics_out << "\n";
    }
  }
  if (!outputs.trace_out.empty()) {
    if (tracer().write_chrome_json_file(outputs.trace_out)) {
      std::cout << "[trace written to " << outputs.trace_out
                << " — load in chrome://tracing]\n";
    } else {
      std::cerr << "cannot write " << outputs.trace_out << "\n";
    }
  }
}

int env_days(int default_days) {
  return static_cast<int>(env_u64("QUICSAND_DAYS",
                                  static_cast<std::uint64_t>(default_days),
                                  1, std::numeric_limits<int>::max()));
}

std::uint64_t env_seed() { return env_u64("QUICSAND_SEED", 2021); }

int env_telescope_bits(int default_bits) {
  return static_cast<int>(env_u64("QUICSAND_TELESCOPE_BITS",
                                  static_cast<std::uint64_t>(default_bits),
                                  0, 32));
}

std::size_t env_threads() {
  const auto hw = std::thread::hardware_concurrency();
  return static_cast<std::size_t>(
      env_u64("QUICSAND_THREADS", hw == 0 ? 1 : hw, 1));
}

const asdb::AsRegistry& registry() {
  static const auto instance = asdb::AsRegistry::synthetic({}, 2021);
  return instance;
}

const scanner::Deployment& deployment() {
  static const auto instance =
      scanner::Deployment::synthetic(registry(), {}, 2021);
  return instance;
}

telescope::ScenarioConfig light_scenario(
    const LightScenarioOptions& options) {
  auto config = telescope::ScenarioConfig::april2021(env_days(options.days),
                                                     env_seed());
  config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0),
                      env_telescope_bits(options.telescope_bits)};
  // The paper removes research scans before the event analyses; skipping
  // their generation entirely keeps these binaries fast.
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = options.common_attacks_per_day;
  return config;
}

core::PipelineOptions pipeline_options(
    const telescope::ScenarioConfig& config) {
  core::PipelineOptions options;
  options.window_start = config.start;
  options.days = config.days;
  options.research_prefixes.push_back(
      registry().prefixes_of(asdb::AsRegistry::kTumScanner).front());
  options.research_prefixes.push_back(
      registry().prefixes_of(asdb::AsRegistry::kRwthScanner).front());
  return options;
}

AnalyzedScenario run_scenario(const telescope::ScenarioConfig& config) {
  AnalyzedScenario result;
  result.config = config;
  auto options = pipeline_options(config);
  // Every harness feeds the process-wide sinks; writing the files is
  // opt-in via --metrics-out/--trace-out (see write_obs_outputs).
  options.obs.metrics = &metrics();
  options.obs.tracer = &tracer();
  result.pipeline =
      std::make_unique<core::ParallelPipeline>(options, env_threads());

  // Classification overlaps generation on the worker pool; finish()
  // drains it, so the generate timing covers ingest too.
  const auto generate_start = std::chrono::steady_clock::now();
  telescope::TelescopeGenerator generator(config, registry(), deployment());
  {
    obs::Span span(&tracer(), "bench.generate_ingest");
    auto batch = result.pipeline->acquire_batch();
    while (generator.next_batch(batch) > 0) {
      result.pipeline->consume_batch(std::move(batch));
      batch = result.pipeline->acquire_batch();
    }
    result.pipeline->finish();
  }
  result.generate_seconds = seconds_since(generate_start);

  const auto analyze_start = std::chrono::steady_clock::now();
  {
    obs::Span span(&tracer(), "bench.analyze");
    result.truth = generator.ground_truth();
    result.intel = generator.make_intel_db();
    result.analysis = result.pipeline->analyze_attacks();
  }
  result.analyze_seconds = seconds_since(analyze_start);
  return result;
}

void print_scale(const telescope::ScenarioConfig& config) {
  std::cout << "scale: window=" << config.days << "d (paper: 30d)"
            << "  telescope=" << config.telescope.to_string()
            << " (paper: /9)"
            << "  seed=" << config.seed
            << "  threads=" << env_threads() << "\n";
}

void print_timing(const AnalyzedScenario& scenario) {
  std::cout << "[generate " << util::fmt(scenario.generate_seconds, 1)
            << "s, analyze " << util::fmt(scenario.analyze_seconds, 1)
            << "s";
  if (const auto peak = peak_rss_mib(); peak > 0) {
    std::cout << ", peak " << peak << " MB";
  }
  std::cout << "]\n";
}

void compare(const std::string& metric, const std::string& paper,
             const std::string& measured) {
  std::cout << "  " << metric << ": paper=" << paper
            << "  measured=" << measured << "\n";
}

void print_cdf(const std::string& title, const util::Cdf& cdf,
               const std::string& unit) {
  util::print_heading(std::cout, title);
  if (cdf.empty()) {
    std::cout << "(no samples)\n";
    return;
  }
  util::Table table({"quantile", unit});
  for (const double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 1.0}) {
    table.add_row({util::pct(q, 0), util::fmt(cdf.quantile(q), 2)});
  }
  table.print(std::cout);
  std::cout << "mean=" << util::fmt(cdf.mean(), 2) << " " << unit
            << "  n=" << cdf.size() << "\n";
}

}  // namespace quicsand::bench
