// Admin HTTP server: endpoint bodies pinned against injected clocks,
// protocol error paths (404/405/408/413/503), the /events live tail, and
// scrapes racing metric writes (the tsan preset runs this suite).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/http/admin.hpp"
#include "obs/http/server.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tsdb.hpp"

namespace quicsand::obs::http {
namespace {

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const auto n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_until_eof(int fd) {
  std::string out;
  char buffer[4096];
  while (true) {
    const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    out.append(buffer, static_cast<std::size_t>(n));
  }
  return out;
}

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lower-case keys
  std::string body;  ///< de-chunked when Transfer-Encoding: chunked
};

std::string to_lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string decode_chunked(std::string_view raw) {
  std::string out;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    const auto line_end = raw.find("\r\n", pos);
    if (line_end == std::string_view::npos) break;
    std::size_t size = 0;
    const auto* begin = raw.data() + pos;
    const auto* end = raw.data() + line_end;
    if (std::from_chars(begin, end, size, 16).ptr != end) break;
    if (size == 0) break;  // terminating chunk
    pos = line_end + 2;
    if (pos + size > raw.size()) break;
    out.append(raw.substr(pos, size));
    pos += size + 2;  // chunk data + trailing CRLF
  }
  return out;
}

HttpResponse parse_response(const std::string& raw) {
  HttpResponse response;
  const auto head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return response;
  std::istringstream head(raw.substr(0, head_end));
  std::string line;
  std::getline(head, line);  // "HTTP/1.1 200 OK\r"
  if (line.size() >= 12) {
    const auto* begin = line.data() + 9;
    std::from_chars(begin, begin + 3, response.status);
  }
  while (std::getline(head, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    auto value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    response.headers[to_lower(line.substr(0, colon))] = value;
  }
  const auto body = raw.substr(head_end + 4);
  response.body = response.headers["transfer-encoding"] == "chunked"
                      ? decode_chunked(body)
                      : body;
  return response;
}

HttpResponse http_raw(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  send_all(fd, request);
  const auto raw = read_until_eof(fd);
  ::close(fd);
  return parse_response(raw);
}

HttpResponse http_get(std::uint16_t port, const std::string& target) {
  return http_raw(port,
                  "GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n");
}

/// Line-level Prometheus text exposition check: every line is a HELP,
/// a TYPE with a known kind, or `name[{labels}] value` with a numeric
/// value and a well-formed metric name.
void expect_valid_prometheus(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  int samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const auto kind = line.substr(line.rfind(' ') + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << line;
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const auto name = line.substr(0, space);
    const auto value = line.substr(space + 1);
    EXPECT_TRUE((name[0] >= 'a' && name[0] <= 'z') ||
                (name[0] >= 'A' && name[0] <= 'Z') || name[0] == '_')
        << line;
    double parsed = 0;
    const auto* begin = value.data();
    const auto* end = value.data() + value.size();
    EXPECT_EQ(std::from_chars(begin, end, parsed).ptr, end) << line;
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(ObsHttp, MetricsEndpointServesPrometheusExposition) {
  MetricsRegistry metrics;
  metrics.counter("monitor.packets", "telescope packets streamed").add(42);
  metrics.histogram("pipeline.batch_us", "batch latency").record(7);
  AdminOptions options;
  options.metrics = &metrics;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  const auto response = http_get(admin.port(), "/metrics");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.at("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(response.body, metrics.to_prometheus());
  expect_valid_prometheus(response.body);
  EXPECT_NE(response.body.find("quicsand_monitor_packets_total 42"),
            std::string::npos);

  const auto json = http_get(admin.port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.body, metrics.to_json());
}

TEST(ObsHttp, GoldenStatsWithInjectedClockAndThreadCount) {
  MetricsRegistry metrics;
  metrics.counter("monitor.packets").add(5000);
  AdminOptions options;
  options.metrics = &metrics;
  options.clock = [] { return std::uint64_t{2500000}; };  // 2.5 s
  options.thread_count = [] { return std::int64_t{7}; };
  AdminServer admin(std::move(options));

  EXPECT_EQ(admin.stats_json(),
            "{\"uptime_s\": 2.500, \"threads\": 7, "
            "\"http\": {\"accepted\": 0, \"served\": 0, \"rejected\": 0}, "
            "\"counters\": {\"monitor.packets\": 5000}, "
            "\"gauges\": {}, "
            "\"throughput_per_s\": {\"monitor.packets\": 2000.000}}");

  ASSERT_TRUE(admin.start()) << admin.last_error();
  const auto response = http_get(admin.port(), "/stats");
  EXPECT_EQ(response.status, 200);
  // One connection is now accounted for by the time the handler runs.
  EXPECT_NE(response.body.find("\"accepted\": 1"), std::string::npos);
  EXPECT_NE(response.body.find("\"threads\": 7"), std::string::npos);
}

TEST(ObsHttp, HealthzFollowsTheWatchdog) {
  auto now = std::make_shared<std::uint64_t>(0);
  Health health([now] { return *now; });
  auto& component =
      health.component("stage", 10 * util::kSecond, 60 * util::kSecond);
  component.set_ready(true);
  AdminOptions options;
  options.health = &health;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  auto healthz = http_get(admin.port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, health.to_json() + "\n");

  *now = static_cast<std::uint64_t>((61 * util::kSecond).count());
  healthz = http_get(admin.port(), "/healthz");
  EXPECT_EQ(healthz.status, 503);
  EXPECT_NE(healthz.body.find("\"status\": \"unhealthy\""),
            std::string::npos);

  component.heartbeat();
  EXPECT_EQ(http_get(admin.port(), "/healthz").status, 200);
}

TEST(ObsHttp, ReadyzRequiresEveryComponentReady) {
  Health health;
  auto& component = health.component("stage");
  AdminOptions options;
  options.health = &health;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  auto readyz = http_get(admin.port(), "/readyz");
  EXPECT_EQ(readyz.status, 503);
  EXPECT_EQ(readyz.body, "{\"ready\": false}\n");

  component.set_ready(true);
  readyz = http_get(admin.port(), "/readyz");
  EXPECT_EQ(readyz.status, 200);
  EXPECT_EQ(readyz.body, "{\"ready\": true}\n");
}

TEST(ObsHttp, EndpointsAnswer503WithoutAttachedSinks) {
  AdminServer admin(AdminOptions{});
  ASSERT_TRUE(admin.start()) << admin.last_error();
  EXPECT_EQ(http_get(admin.port(), "/metrics").status, 503);
  EXPECT_EQ(http_get(admin.port(), "/healthz").status, 503);
  EXPECT_EQ(http_get(admin.port(), "/readyz").status, 503);
  EXPECT_EQ(http_get(admin.port(), "/stats").status, 200);
  EXPECT_EQ(http_get(admin.port(), "/tsdb/series").status, 503);
  EXPECT_EQ(http_get(admin.port(), "/tsdb/query?series=x").status, 503);
  EXPECT_EQ(http_get(admin.port(), "/debug/flightrecorder").status, 503);
  // /dash is static HTML: always served.
  EXPECT_EQ(http_get(admin.port(), "/dash").status, 200);
}

TEST(ObsHttp, ProtocolErrorPaths) {
  Server server(ServerOptions{});
  server.handle("/ok", [](const Request&) { return Response{}; });
  ASSERT_TRUE(server.start()) << server.last_error();

  EXPECT_EQ(http_get(server.port(), "/missing").status, 404);
  EXPECT_EQ(http_raw(server.port(),
                     "POST /ok HTTP/1.1\r\nHost: t\r\n\r\n")
                .status,
            405);
  EXPECT_EQ(http_get(server.port(), "/ok").status, 200);

  // HEAD gets the headers with an empty body.
  const auto head =
      http_raw(server.port(), "HEAD /ok HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
}

TEST(ObsHttp, OversizedRequestGets413) {
  ServerOptions options;
  options.max_request_bytes = 64;
  Server server(options);
  server.handle("/", [](const Request&) { return Response{}; });
  ASSERT_TRUE(server.start()) << server.last_error();

  const std::string request = "GET /" + std::string(128, 'a') +
                              " HTTP/1.1\r\nHost: t\r\n\r\n";
  EXPECT_EQ(http_raw(server.port(), request).status, 413);
}

TEST(ObsHttp, StalledRequestTimesOutWith408) {
  ServerOptions options;
  options.read_timeout = 100 * util::kMillisecond;
  Server server(options);
  server.handle("/", [](const Request&) { return Response{}; });
  ASSERT_TRUE(server.start()) << server.last_error();

  const int fd = connect_to(server.port());
  send_all(fd, "GET / HTTP/1.1\r\n");  // never finishes the head
  const auto response = parse_response(read_until_eof(fd));
  ::close(fd);
  EXPECT_EQ(response.status, 408);
}

TEST(ObsHttp, ConnectionCapRejectsWith503) {
  ServerOptions options;
  options.max_connections = 0;  // every connection is over the cap
  Server server(options);
  server.handle("/", [](const Request&) { return Response{}; });
  ASSERT_TRUE(server.start()) << server.last_error();

  EXPECT_EQ(http_get(server.port(), "/").status, 503);
  EXPECT_GE(server.connections_rejected(), 1u);
}

TEST(ObsHttp, EventsStreamReplaysBacklogAndTailsLiveAlerts) {
  EventLog events;
  DetectorEvent stored;
  stored.type = DetectorEventType::kAlertFired;
  stored.victim = "44.0.0.1";
  events.emit(stored);

  AdminOptions options;
  options.events = &events;
  options.events_poll = 20 * util::kMillisecond;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  const int fd = connect_to(admin.port());
  send_all(fd, "GET /events?backlog=10 HTTP/1.1\r\nHost: t\r\n\r\n");

  // Read until both the replayed and the live line have arrived.
  std::string raw;
  char buffer[4096];
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  bool live_emitted = false;
  while (raw.find("44.0.0.2") == std::string::npos) {
    if (!live_emitted && raw.find("44.0.0.1") != std::string::npos) {
      // Backlog arrived: fire a live alert mid-stream.
      DetectorEvent live;
      live.type = DetectorEventType::kAlertFired;
      live.victim = "44.0.0.2";
      events.emit(live);
      live_emitted = true;
    }
    const auto n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0) << "stream stalled before the live alert arrived";
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const auto head_end = raw.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_NE(raw.find("Transfer-Encoding: chunked"), std::string::npos);
  const auto body = decode_chunked(raw.substr(head_end + 4));
  EXPECT_NE(body.find("\"victim\": \"44.0.0.1\""), std::string::npos);
  EXPECT_NE(body.find("\"victim\": \"44.0.0.2\""), std::string::npos);
  admin.stop();
}

/// Store + sampler driven by a manual clock: every /tsdb body below is
/// byte-deterministic.
struct TsdbFixture {
  MetricsRegistry metrics;
  EventLog events;
  TimeSeriesStore store;
  std::uint64_t now_us = 1'000'000'000;  // t = 1000 s

  TsdbFixture() {
    auto& packets = metrics.counter("pipeline.packets");
    SamplerConfig config;
    config.metrics = &metrics;
    config.store = &store;
    config.events = &events;
    config.clock = [this] { return now_us; };
    config.self_metrics = false;
    Sampler sampler(config);

    packets.add(100);
    sampler.sample_once();
    DetectorEvent event;
    event.type = DetectorEventType::kAlertFired;
    event.time = util::Timestamp{} + 999 * util::kSecond;
    event.victim = "44.1.2.3";
    event.packets = 5000;
    event.peak_pps = 250.0;
    events.emit(event);
    now_us += 1'000'000;
    packets.add(400);
    sampler.sample_once();
  }
};

TEST(ObsHttp, TsdbRoutesServeGoldenBodies) {
  TsdbFixture fixture;
  AdminOptions options;
  options.tsdb = &fixture.store;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  const auto series = http_get(admin.port(), "/tsdb/series");
  EXPECT_EQ(series.status, 200);
  EXPECT_EQ(series.headers.at("content-type"), "application/json");
  EXPECT_EQ(series.body,
            "{\"tiers\": [{\"step_us\": 1000000, \"buckets\": 600},"
            " {\"step_us\": 10000000, \"buckets\": 720},"
            " {\"step_us\": 60000000, \"buckets\": 1440}], \"series\":"
            " [{\"name\": \"pipeline.packets\", \"kind\": \"counter\","
            " \"samples\": 2, \"first_us\": 1000000000,"
            " \"last_us\": 1001000000}], \"dropped_series\": 0}\n");

  const auto query = http_get(
      admin.port(),
      "/tsdb/query?series=pipeline.packets&from=999000000&to=1002000000");
  EXPECT_EQ(query.status, 200);
  EXPECT_EQ(query.body,
            "{\"series\": \"pipeline.packets\", \"kind\": \"counter\","
            " \"step_us\": 1000000, \"columns\": [\"t_us\", \"min\","
            " \"max\", \"sum\", \"count\", \"last\"], \"points\":"
            " [[1000000000, 100, 100, 100, 1, 100],"
            " [1001000000, 500, 500, 500, 1, 500]], \"annotations\":"
            " [{\"t_us\": 1001000000, \"event_time_us\": 999000000,"
            " \"kind\": \"alert_fired\", \"victim\": \"44.1.2.3\","
            " \"packets\": 5000, \"peak_pps\": 250.000}]}\n");
}

TEST(ObsHttp, TsdbQueryParamErrorsAreStructured) {
  TsdbFixture fixture;
  AdminOptions options;
  options.tsdb = &fixture.store;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  // Missing series name.
  const auto missing = http_get(admin.port(), "/tsdb/query");
  EXPECT_EQ(missing.status, 400);
  EXPECT_EQ(missing.body,
            "{\"error\": {\"param\": \"series\", \"reason\": \"required\","
            " \"value\": \"\"}}\n");
  // Malformed numerics, one per parameter.
  const auto bad_from =
      http_get(admin.port(), "/tsdb/query?series=x&from=abc");
  EXPECT_EQ(bad_from.status, 400);
  EXPECT_EQ(bad_from.body,
            "{\"error\": {\"param\": \"from\", \"reason\":"
            " \"not an unsigned integer\", \"value\": \"abc\"}}\n");
  EXPECT_EQ(http_get(admin.port(), "/tsdb/query?series=x&to=-5").status,
            400);
  EXPECT_EQ(http_get(admin.port(), "/tsdb/query?series=x&step=1.5").status,
            400);
  // Reversed range.
  const auto reversed = http_get(
      admin.port(), "/tsdb/query?series=pipeline.packets&from=9&to=3");
  EXPECT_EQ(reversed.status, 400);
  EXPECT_EQ(reversed.body,
            "{\"error\": {\"param\": \"from\", \"reason\":"
            " \"exceeds to (reversed range)\", \"value\": \"9\"}}\n");
  // Unknown series: structured 404.
  const auto unknown = http_get(admin.port(), "/tsdb/query?series=nope");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body,
            "{\"error\": {\"param\": \"series\", \"reason\":"
            " \"unknown series\", \"value\": \"nope\"}}\n");
  // An empty in-retention range is a 200 with no points, not an error.
  const auto empty = http_get(
      admin.port(),
      "/tsdb/query?series=pipeline.packets&from=1002000000&to=1003000000");
  EXPECT_EQ(empty.status, 200);
  EXPECT_NE(empty.body.find("\"points\": []"), std::string::npos);
}

TEST(ObsHttp, EventsBacklogParamValidatedBeforeStreaming) {
  EventLog events;
  AdminOptions options;
  options.events = &events;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  // A malformed backlog is rejected with the uniform 400 shape instead
  // of a chunked 200 that can no longer carry a status.
  const auto bad = http_get(admin.port(), "/events?backlog=notanumber");
  EXPECT_EQ(bad.status, 400);
  EXPECT_EQ(bad.body,
            "{\"error\": {\"param\": \"backlog\", \"reason\":"
            " \"not an unsigned integer\", \"value\": \"notanumber\"}}\n");
}

TEST(ObsHttp, DashServesSelfContainedHtml) {
  AdminServer admin(AdminOptions{});
  ASSERT_TRUE(admin.start()) << admin.last_error();
  const auto dash = http_get(admin.port(), "/dash");
  EXPECT_EQ(dash.status, 200);
  EXPECT_EQ(dash.headers.at("content-type"), "text/html; charset=utf-8");
  EXPECT_NE(dash.body.find("<title>quicsand dash</title>"),
            std::string::npos);
  EXPECT_NE(dash.body.find("/tsdb/query"), std::string::npos);
  // Self-contained: no external scripts, stylesheets, or fonts.
  EXPECT_EQ(dash.body.find("http://"), std::string::npos);
  EXPECT_EQ(dash.body.find("https://"), std::string::npos);
}

TEST(ObsHttp, FlightRecorderRouteDumpsDeterministicBundle) {
  TsdbFixture fixture;
  FlightRecorderConfig recorder_config;
  recorder_config.store = &fixture.store;
  FlightRecorder recorder(recorder_config);

  AdminOptions options;
  options.tsdb = &fixture.store;
  options.flight = &recorder;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  const auto bundle = http_get(admin.port(), "/debug/flightrecorder");
  EXPECT_EQ(bundle.status, 200);
  EXPECT_EQ(bundle.headers.at("content-type"), "application/x-ndjson");
  EXPECT_EQ(bundle.body,
            "{\"type\": \"meta\", \"now_us\": 1001000000, \"from_us\":"
            " 881000000, \"window_s\": 120, \"series\": 1}\n"
            "{\"type\": \"sample\", \"series\": \"pipeline.packets\","
            " \"kind\": \"counter\", \"t_us\": 1000000000, \"min\": 100,"
            " \"max\": 100, \"sum\": 100, \"count\": 1, \"last\": 100}\n"
            "{\"type\": \"sample\", \"series\": \"pipeline.packets\","
            " \"kind\": \"counter\", \"t_us\": 1001000000, \"min\": 500,"
            " \"max\": 500, \"sum\": 500, \"count\": 1, \"last\": 500}\n"
            "{\"type\": \"annotation\", \"t_us\": 1001000000,"
            " \"event_time_us\": 999000000, \"kind\": \"alert_fired\","
            " \"victim\": \"44.1.2.3\", \"packets\": 5000,"
            " \"peak_pps\": 250.000}\n");
  // Identical on every scrape while the store is quiet.
  EXPECT_EQ(http_get(admin.port(), "/debug/flightrecorder").body,
            bundle.body);
}

TEST(ObsHttp, StatsReportRatesFromTheStore) {
  TsdbFixture fixture;
  AdminOptions options;
  options.metrics = &fixture.metrics;
  options.tsdb = &fixture.store;
  options.clock = [] { return std::uint64_t{5'000'000}; };
  options.thread_count = [] { return std::int64_t{1}; };
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  const auto stats = http_get(admin.port(), "/stats");
  EXPECT_EQ(stats.status, 200);
  // 100 -> 500 over one second of sample clock: 400/s, from history,
  // independent of the /stats uptime clock.
  EXPECT_NE(stats.body.find(
                "\"rates_per_s\": {\"pipeline.packets\": 400.000}"),
            std::string::npos);
}

TEST(ObsHttp, ConcurrentScrapesDuringMetricWrites) {
  MetricsRegistry metrics;
  auto& counter = metrics.counter("race.counter");
  auto& histogram = metrics.histogram("race.hist");
  AdminOptions options;
  options.metrics = &metrics;
  AdminServer admin(std::move(options));
  ASSERT_TRUE(admin.start()) << admin.last_error();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add();
        histogram.record(i++ % 128);
      }
    });
  }

  std::vector<std::thread> scrapers;
  std::atomic<int> bad_responses{0};
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        const auto response = http_get(admin.port(), "/metrics");
        if (response.status != 200) bad_responses.fetch_add(1);
        expect_valid_prometheus(response.body);
      }
    });
  }
  for (auto& thread : scrapers) thread.join();
  stop.store(true);
  for (auto& thread : writers) thread.join();
  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(counter.value(), 0u);
}

}  // namespace
}  // namespace quicsand::obs::http
