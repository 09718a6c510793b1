#include "obs/metrics.hpp"

#include <fstream>
#include <sstream>
#include <string_view>

namespace quicsand::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; we map dotted paths to
/// underscores and prefix the project name.
std::string prometheus_name(const std::string& name) {
  std::string out = "quicsand_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Counters carry the conventional `_total` suffix in the exposition
/// (OpenMetrics requires it; Prometheus tooling expects it).
std::string prometheus_counter_name(const std::string& name) {
  auto out = prometheus_name(name);
  constexpr std::string_view kSuffix = "_total";
  if (out.size() < kSuffix.size() ||
      out.compare(out.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    out += kSuffix;
  }
  return out;
}

/// HELP text escaping per the text exposition format: backslash and
/// newline must be escaped so multi-line help cannot break the parse.
std::string prometheus_help(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void json_escape_to(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  util::LockGuard lock(mutex_);
  auto& entry = entries_[name];
  if (!entry.counter) {
    entry.counter = std::make_unique<Counter>();
    entry.help = help;
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  util::LockGuard lock(mutex_);
  auto& entry = entries_[name];
  if (!entry.gauge) {
    entry.gauge = std::make_unique<Gauge>();
    entry.help = help;
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help) {
  util::LockGuard lock(mutex_);
  auto& entry = entries_[name];
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>();
    entry.help = help;
  }
  return *entry.histogram;
}

std::string MetricsRegistry::to_prometheus() const {
  util::LockGuard lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, entry] : entries_) {
    const auto prom = entry.counter && !entry.gauge && !entry.histogram
                          ? prometheus_counter_name(name)
                          : prometheus_name(name);
    if (!entry.help.empty()) {
      out << "# HELP " << prom << " " << prometheus_help(entry.help) << "\n";
    }
    if (entry.counter) {
      out << "# TYPE " << prom << " counter\n"
          << prom << " " << entry.counter->value() << "\n";
    }
    if (entry.gauge) {
      out << "# TYPE " << prom << " gauge\n"
          << prom << " " << entry.gauge->value() << "\n";
    }
    if (entry.histogram) {
      // Histograms export as summaries: the quantiles are computed
      // server-side (within Histogram's error bound), so the exposition
      // carries them directly instead of buckets.
      const auto snap = entry.histogram->snapshot();
      out << "# TYPE " << prom << " summary\n";
      out << prom << "{quantile=\"0.5\"} " << snap.p50 << "\n";
      out << prom << "{quantile=\"0.9\"} " << snap.p90 << "\n";
      out << prom << "{quantile=\"0.99\"} " << snap.p99 << "\n";
      out << prom << "{quantile=\"0.999\"} " << snap.p999 << "\n";
      out << prom << "_sum " << snap.sum << "\n";
      out << prom << "_count " << snap.count << "\n";
    }
  }
  return out.str();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_snapshot() const {
  util::LockGuard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, entry] : entries_) {
    if (entry.counter) out.emplace_back(name, entry.counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, std::int64_t>>
MetricsRegistry::gauge_snapshot() const {
  util::LockGuard lock(mutex_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, entry] : entries_) {
    if (entry.gauge) out.emplace_back(name, entry.gauge->value());
  }
  return out;
}

std::vector<MetricsRegistry::HistogramTotals>
MetricsRegistry::histogram_snapshot() const {
  util::LockGuard lock(mutex_);
  std::vector<HistogramTotals> out;
  for (const auto& [name, entry] : entries_) {
    if (entry.histogram) out.push_back({name, entry.histogram->snapshot()});
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  util::LockGuard lock(mutex_);
  std::ostringstream out;
  bool first = false;
  auto begin_section = [&](const char* title) {
    out << "  ";
    json_escape_to(out, title);
    out << ": {";
    first = true;
  };
  auto key = [&](const std::string& name) {
    if (!first) out << ",";
    first = false;
    out << "\n    ";
    json_escape_to(out, name);
    out << ": ";
  };

  out << "{\n";
  begin_section("counters");
  for (const auto& [name, entry] : entries_) {
    if (!entry.counter) continue;
    key(name);
    out << entry.counter->value();
  }
  out << (first ? "" : "\n  ") << "},\n";

  begin_section("gauges");
  for (const auto& [name, entry] : entries_) {
    if (!entry.gauge) continue;
    key(name);
    out << entry.gauge->value();
  }
  out << (first ? "" : "\n  ") << "},\n";

  begin_section("histograms");
  for (const auto& [name, entry] : entries_) {
    if (!entry.histogram) continue;
    key(name);
    const auto snap = entry.histogram->snapshot();
    out << "{\"count\": " << snap.count << ", \"sum\": " << snap.sum
        << ", \"max\": " << snap.max << ", \"p50\": " << snap.p50
        << ", \"p90\": " << snap.p90 << ", \"p99\": " << snap.p99
        << ", \"p999\": " << snap.p999 << "}";
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace quicsand::obs
