#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <malloc.h>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <time.h>

namespace perfbench {

namespace {

double status_field_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream in(line.substr(key.size()));
    double kib = 0;
    in >> kib;
    return kib / 1024.0;
  }
  return 0;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::size_t offline_shards() {
  const auto hw = std::thread::hardware_concurrency();
  return hw <= 2 ? 1 : static_cast<std::size_t>(hw) - 2;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_mb() { return status_field_mb("VmRSS"); }
double peak_rss_mb() { return status_field_mb("VmHWM"); }

double begin_memory_window() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return rss_mb();
}

std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string result_line(const RunResult& result) {
  return std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics_object(result.metrics) + "}";
}

std::string write_results_file(const Args& args, const RunResult& result,
                               std::size_t shards) {
  if (args.out_dir.empty()) return {};
  const std::string path = args.out_dir + "/" + args.workload + ".seed" +
                           std::to_string(args.seed) + ".trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return {};
  std::string notes = "[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    notes += (i > 0 ? ", " : "") + json_string(result.notes[i]);
  }
  notes += "]";
  out << "{\"meta\": {\"commit\": " << json_string(args.commit)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"seed\": " << args.seed
      << ", \"workload\": " << json_string(args.workload)
      << ", \"shards\": " << shards
      << ", \"seconds\": " << number(args.seconds)
      << ", \"trace\": " << (args.trace ? "true" : "false") << "},\n"
      << " \"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ",\n"
      << " \"metrics\": " << metrics_object(result.metrics) << ",\n"
      << " \"extra\": " << metrics_object(result.extra) << ",\n"
      << " \"notes\": " << notes << "}\n";
  return out ? path : std::string{};
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const auto& metric : metrics) {
    std::printf("  %-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace perfbench
