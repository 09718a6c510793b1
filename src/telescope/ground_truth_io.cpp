#include "telescope/ground_truth_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/parse.hpp"

namespace quicsand::telescope {

namespace {

/// Locate the raw value token for `key` in one NDJSON line: the text
/// between the colon and the next top-level ',' or '}'. Good enough for
/// the writer's own output, where values are numbers, booleans, or
/// quoted strings without embedded commas/braces.
std::optional<std::string_view> raw_value(std::string_view line,
                                          std::string_view key) {
  const std::string needle = std::string(1, '"').append(key).append("\":");
  const auto at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  auto begin = at + needle.size();
  while (begin < line.size() && line[begin] == ' ') ++begin;
  auto end = begin;
  if (end < line.size() && line[end] == '"') {
    end = line.find('"', end + 1);
    if (end == std::string_view::npos) return std::nullopt;
    return line.substr(begin + 1, end - begin - 1);  // unquoted
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  while (end > begin && line[end - 1] == ' ') --end;
  if (end == begin) return std::nullopt;
  return line.substr(begin, end - begin);
}

std::optional<std::uint64_t> u64_value(std::string_view line,
                                       std::string_view key) {
  const auto raw = raw_value(line, key);
  if (!raw) return std::nullopt;
  return util::parse_u64(*raw);
}

std::optional<std::int64_t> i64_value(std::string_view line,
                                      std::string_view key) {
  const auto raw = raw_value(line, key);
  if (!raw) return std::nullopt;
  return util::parse_i64(*raw);
}

std::optional<double> f64_value(std::string_view line, std::string_view key) {
  const auto raw = raw_value(line, key);
  if (!raw) return std::nullopt;
  return util::parse_f64(*raw);
}

}  // namespace

const char* planned_relation_name(PlannedRelation relation) {
  switch (relation) {
    case PlannedRelation::kConcurrent: return "concurrent";
    case PlannedRelation::kSequential: return "sequential";
    case PlannedRelation::kIsolated: return "isolated";
    case PlannedRelation::kNotApplicable: return "n/a";
  }
  return "n/a";
}

std::optional<PlannedRelation> parse_planned_relation(std::string_view name) {
  if (name == "concurrent") return PlannedRelation::kConcurrent;
  if (name == "sequential") return PlannedRelation::kSequential;
  if (name == "isolated") return PlannedRelation::kIsolated;
  if (name == "n/a") return PlannedRelation::kNotApplicable;
  return std::nullopt;
}

std::optional<AttackProtocol> parse_attack_protocol(std::string_view name) {
  // The names attack_protocol_name() emits.
  if (name == "QUIC") return AttackProtocol::kQuic;
  if (name == "TCP") return AttackProtocol::kTcp;
  if (name == "ICMP") return AttackProtocol::kIcmp;
  return std::nullopt;
}

void write_ground_truth_ndjson(std::ostream& out, const GroundTruth& truth) {
  out << "{\"type\": \"summary\""
      << ", \"attacks\": " << truth.attacks.size()
      << ", \"research_probe_count\": " << truth.research_probe_count
      << ", \"botnet_packet_count\": " << truth.botnet_packet_count
      << ", \"backscatter_packet_count\": " << truth.backscatter_packet_count
      << ", \"common_packet_count\": " << truth.common_packet_count
      << ", \"misconfig_packet_count\": " << truth.misconfig_packet_count
      << ", \"total_packet_count\": " << truth.total_packet_count << "}\n";
  for (const auto& attack : truth.attacks) {
    std::ostringstream line;
    line.precision(17);
    line << "{\"type\": \"attack\""
         << ", \"protocol\": \"" << attack_protocol_name(attack.protocol)
         << "\", \"victim\": \"" << attack.victim.to_string()
         << "\", \"victim_asn\": " << attack.victim_asn
         << ", \"known_server\": "
         << (attack.victim_is_known_server ? "true" : "false")
         << ", \"quic_version\": " << attack.quic_version
         << ", \"start_us\": " << attack.start.count()
         << ", \"duration_us\": " << attack.duration.count()
         << ", \"peak_pps\": " << attack.peak_pps
         << ", \"relation\": \"" << planned_relation_name(attack.relation)
         << "\"}";
    out << line.str() << "\n";
  }
}

bool write_ground_truth_ndjson_file(const std::string& path,
                                    const GroundTruth& truth) {
  std::ofstream out(path);
  if (!out) return false;
  write_ground_truth_ndjson(out, truth);
  out.flush();
  return static_cast<bool>(out);
}

std::optional<GroundTruth> read_ground_truth_ndjson(std::istream& in,
                                                    std::string* error) {
  auto fail = [error](std::size_t line_no, const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return std::nullopt;
  };
  GroundTruth truth;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto type = raw_value(line, "type");
    if (!type) return fail(line_no, "missing \"type\"");
    if (*type == "summary") {
      auto read_count = [&](std::string_view key, std::uint64_t* out_value) {
        if (const auto v = u64_value(line, key)) *out_value = *v;
      };
      read_count("research_probe_count", &truth.research_probe_count);
      read_count("botnet_packet_count", &truth.botnet_packet_count);
      read_count("backscatter_packet_count",
                 &truth.backscatter_packet_count);
      read_count("common_packet_count", &truth.common_packet_count);
      read_count("misconfig_packet_count", &truth.misconfig_packet_count);
      read_count("total_packet_count", &truth.total_packet_count);
      continue;
    }
    if (*type != "attack") {
      return fail(line_no, "unknown type '" + std::string(*type) + "'");
    }
    PlannedAttack attack;
    const auto protocol = raw_value(line, "protocol");
    if (!protocol) return fail(line_no, "missing \"protocol\"");
    if (const auto p = parse_attack_protocol(*protocol)) {
      attack.protocol = *p;
    } else {
      return fail(line_no, "bad protocol '" + std::string(*protocol) + "'");
    }
    const auto victim = raw_value(line, "victim");
    if (!victim) return fail(line_no, "missing \"victim\"");
    if (const auto address = net::Ipv4Address::parse(*victim)) {
      attack.victim = *address;
    } else {
      return fail(line_no, "bad victim '" + std::string(*victim) + "'");
    }
    const auto start = i64_value(line, "start_us");
    const auto duration = i64_value(line, "duration_us");
    if (!start || !duration) {
      return fail(line_no, "missing start_us/duration_us");
    }
    attack.start = util::Timestamp{*start};
    attack.duration = util::Duration{*duration};
    if (const auto asn = u64_value(line, "victim_asn")) {
      attack.victim_asn = static_cast<asdb::Asn>(*asn);
    }
    if (const auto version = u64_value(line, "quic_version")) {
      attack.quic_version = static_cast<std::uint32_t>(*version);
    }
    if (const auto pps = f64_value(line, "peak_pps")) {
      attack.peak_pps = *pps;
    }
    if (const auto known = raw_value(line, "known_server")) {
      attack.victim_is_known_server = (*known == "true");
    }
    if (const auto relation = raw_value(line, "relation")) {
      if (const auto r = parse_planned_relation(*relation)) {
        attack.relation = *r;
      } else {
        return fail(line_no,
                    "bad relation '" + std::string(*relation) + "'");
      }
    }
    truth.attacks.push_back(attack);
  }
  return truth;
}

std::optional<GroundTruth> read_ground_truth_ndjson_file(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return read_ground_truth_ndjson(in, error);
}

}  // namespace quicsand::telescope
