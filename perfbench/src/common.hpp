// Shared plumbing for the benchmark binary: command-line arguments,
// clocks and order statistics, resident-memory probes, layer timers
// that also emit obs::Tracer spans, and the result record that becomes
// the final JSON line and the results file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;  ///< results + chrome trace; empty = none
};

/// Offline shard count: one core feeds, one is left to the kernel and
/// other tenants, the rest classify and analyze.
std::size_t offline_shards();

/// Set-up runs at least kSetupRepeats times and until kSetupSeconds have
/// passed; setup_s is the median.
constexpr std::size_t kSetupRepeats = 7;
constexpr double kSetupSeconds = 1.0;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process, every thread (exited ones too), in
/// seconds. On a VM with steal-time accounting the kernel leaves out the
/// time the hypervisor gave to other tenants.
double process_cpu_s();

/// Median and linear-interpolated quantile of a copy of `values`; 0 on
/// an empty input.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// Resident set of this process, in MiB, from /proc/self/status.
double rss_mb();
/// High-water resident set (VmHWM), in MiB.
double peak_rss_mb();
/// Start a memory window: hand freed heap back to the kernel, reset
/// VmHWM to the current resident set (writes "5" to
/// /proc/self/clear_refs) and return that resident set, in MiB. The
/// window's growth is then peak_rss_mb() minus the returned value.
double begin_memory_window();

/// Accumulated wall time of one layer across many calls.
struct LayerTime {
  std::uint64_t ns = 0;
};

/// Times one call into a layer: adds the elapsed steady-clock time to
/// `into` and records an obs::Tracer span of the same name (no span
/// when `tracer` is null).
class LayerScope {
 public:
  LayerScope(quicsand::obs::Tracer* tracer, const char* name, LayerTime& into)
      : span_(tracer, name), into_(into), start_(Clock::now()) {}
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;
  ~LayerScope() {
    into_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  quicsand::obs::Span span_;
  LayerTime& into_;
  Clock::time_point start_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome. `metrics` go to the final JSON line; `extra`
/// (metadata, informational numbers) only to the results file.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<std::string> notes;  ///< output-check findings

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void info(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed output check: the run is incorrect and `ops`
  /// operations count as failed.
  void mismatch(std::string what, std::uint64_t ops) {
    correct = false;
    failed += ops;
    notes.push_back(std::move(what));
  }
};

/// Format a double with every significant digit (shortest round-trip).
std::string number(double value);

/// The final-line JSON object: correct, attempted, failed, metrics.
std::string result_line(const RunResult& result);

/// Write `<out_dir>/<workload>.seed<seed>.trace<0|1>.json`: run metadata
/// (commit, build type, compiler, nproc, seed, workload, shards) plus
/// every metric, extra and note. Returns the path, empty on failure.
std::string write_results_file(const Args& args, const RunResult& result,
                               std::size_t shards);

/// Print "  name  value unit" rows for a set of metrics.
void print_metrics(const char* heading, const std::vector<Metric>& metrics);

}  // namespace perfbench
