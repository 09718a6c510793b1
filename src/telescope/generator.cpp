#include "telescope/generator.hpp"

#include <cmath>
#include <stdexcept>

#include "telescope/attack_schedule.hpp"

namespace quicsand::telescope {

namespace {

/// Diurnal rate modulation with peaks at 6:00 and 18:00 UTC (Figure 3):
/// a raised pair of Gaussian bumps over a flat base.
double diurnal_factor(double hour_of_day, double amplitude) {
  auto bump = [&](double peak) {
    double d = std::fabs(hour_of_day - peak);
    d = std::min(d, 24.0 - d);
    return std::exp(-d * d / (2.0 * 2.2 * 2.2));
  };
  return 1.0 + amplitude * (bump(6.0) + bump(18.0) - 0.5);
}

/// Draw a session start time whose density follows the diurnal profile
/// (acceptance-rejection over the window).
util::Timestamp draw_diurnal_time(const ScenarioConfig& config,
                                  util::Rng& rng) {
  const auto window =
      static_cast<std::uint64_t>((config.end() - config.start).count());
  const double max_factor = 1.0 + config.botnet.diurnal_amplitude;
  for (;;) {
    const auto t =
        config.start +
        util::Duration{static_cast<std::int64_t>(rng.uniform(window))};
    const double hour =
        static_cast<double>(util::seconds_of_day(t)) / 3600.0;
    const double f = diurnal_factor(hour, config.botnet.diurnal_amplitude);
    if (rng.uniform01() * max_factor <= f) return t;
  }
}

}  // namespace

TelescopeGenerator::TelescopeGenerator(const ScenarioConfig& config,
                                       const asdb::AsRegistry& registry,
                                       const scanner::Deployment& deployment)
    : config_(config) {
  util::Rng rng(util::mix64(config.seed, 0x93e7a70));

  // Research scanners: deterministic full-IPv4 pass schedules.
  for (const auto* scanner_config : {&config.tum, &config.rwth}) {
    const auto* info = registry.find(scanner_config->asn);
    if (info == nullptr) continue;
    const auto prefix = registry.prefixes_of(scanner_config->asn).front();
    for (std::uint64_t host = 0; host < 8; ++host) {
      research_hosts_.push_back(prefix.at(0x20 + host));
    }
    add_emitter(std::make_unique<ResearchScanEmitter>(
        config, *scanner_config, prefix, rng.next()));
  }
  research_emitters_ = emitters_.size();

  // Botnet scanning sessions from eyeball networks, diurnally shaped.
  {
    util::Rng bot_rng = rng.fork(0xb07);
    const auto session_count = bot_rng.poisson(
        config.botnet.sessions_per_day * config.days);
    const auto countries = asdb::eyeball_country_weights();
    std::vector<double> weights;
    weights.reserve(countries.size());
    for (const auto& c : countries) weights.push_back(c.weight);

    for (std::uint64_t i = 0; i < session_count; ++i) {
      // Pick a country by weight, then an eyeball AS within it.
      std::vector<asdb::Asn> candidates;
      std::string country;
      for (int attempt = 0; attempt < 16 && candidates.empty(); ++attempt) {
        country = countries[bot_rng.weighted_index(weights)].code;
        candidates = registry.by_type_and_country(asdb::NetworkType::kEyeball,
                                                  country);
      }
      if (candidates.empty()) continue;
      const auto asn = candidates[bot_rng.uniform(candidates.size())];
      BotnetSource source;
      source.address = registry.random_address_in(asn, bot_rng);
      source.asn = asn;
      source.country = country;
      if (bot_rng.bernoulli(config.botnet.tagged_malicious_share)) {
        source.tagged_malicious = true;
        const double roll = bot_rng.uniform01();
        source.tag = roll < 0.5 ? threat::tags::kMirai
                     : roll < 0.75 ? threat::tags::kEternalblue
                                   : threat::tags::kBruteforcer;
      }
      const auto start = draw_diurnal_time(config, bot_rng);
      const auto packets = std::max<std::uint64_t>(
          1, bot_rng.poisson(config.botnet.packets_per_session));
      truth_.botnet_packet_count += packets;
      truth_.botnet_sources.push_back(source);
      add_emitter(std::make_unique<BotnetSessionEmitter>(
          config, source.address, start, packets, bot_rng.next()));
    }
  }

  // DoS attacks (QUIC backscatter + TCP/ICMP backscatter).
  {
    util::Rng attack_rng = rng.fork(0xa77);
    truth_.attacks = plan_attacks(config, registry, deployment, attack_rng);
    for (const auto& attack : truth_.attacks) {
      if (attack.protocol == AttackProtocol::kQuic) {
        add_emitter(std::make_unique<QuicBackscatterEmitter>(
            config, attack, attack_rng.next()));
      } else {
        add_emitter(std::make_unique<CommonBackscatterEmitter>(
            config, attack, attack_rng.next()));
      }
    }
  }

  // Misconfiguration noise from content hosts.
  {
    util::Rng noise_rng = rng.fork(0x30153);
    const auto session_count = noise_rng.poisson(
        config.misconfig.sessions_per_day * config.days);
    const auto content = registry.by_type(asdb::NetworkType::kContent);
    const auto window =
        static_cast<std::uint64_t>((config.end() - config.start).count());
    for (std::uint64_t i = 0; i < session_count && !content.empty(); ++i) {
      const auto asn = content[noise_rng.uniform(content.size())];
      const auto source = registry.random_address_in(asn, noise_rng);
      const auto start =
          config.start +
          util::Duration{static_cast<std::int64_t>(noise_rng.uniform(window))};
      const auto packets = std::max<std::uint64_t>(
          2, noise_rng.poisson(config.misconfig.packets_per_session));
      truth_.misconfig_packet_count += packets;
      const double roll = noise_rng.uniform01();
      const std::uint32_t version = roll < 0.55   ? 1u
                                    : roll < 0.85 ? 0xff00001du
                                                  : 0x51303530u;  // Q050
      add_emitter(std::make_unique<MisconfigEmitter>(
          config, source, version, start, packets, noise_rng.next()));
    }
  }
}

void TelescopeGenerator::add_emitter(std::unique_ptr<PacketEmitter> emitter) {
  if (emitter->stage() && emitter->staged_time() < config_.end()) {
    heap_push(MergeEntry{emitter->staged_time(), emitters_.size()});
  }
  emitters_.push_back(std::move(emitter));
}

void TelescopeGenerator::heap_push(MergeEntry entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (heap_[parent].time <= entry.time) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void TelescopeGenerator::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const MergeEntry entry = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].time < heap_[child].time) {
      ++child;
    }
    if (entry.time <= heap_[child].time) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

void TelescopeGenerator::advance_root() {
  auto& emitter = *emitters_[heap_.front().emitter_index];
  if (emitter.stage() && emitter.staged_time() < config_.end()) {
    heap_.front().time = emitter.staged_time();
    heap_sift_down(0);
  } else {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(0);
  }
}

std::size_t TelescopeGenerator::next_batch(net::RecordBatch& batch) {
  batch.clear();
  while (!heap_.empty()) {
    const MergeEntry root = heap_.front();
    auto& emitter = *emitters_[root.emitter_index];
    const std::size_t size = emitter.staged_size();
    if (!batch.has_room(size)) {
      if (batch.empty()) {
        throw std::invalid_argument(
            "next_batch: packet larger than the batch arena");
      }
      break;
    }
    emitter.emit(batch.append(root.time, size));
    advance_root();
    ++truth_.total_packet_count;
    if (root.emitter_index < research_emitters_) {
      ++truth_.research_probe_count;
    }
  }
  return batch.size();
}

std::uint64_t TelescopeGenerator::generate(
    const std::function<void(const net::RawPacket&)>& sink) {
  net::RecordBatch batch;
  net::RawPacket packet;
  std::uint64_t count = 0;
  while (next_batch(batch) > 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto view = batch.view(i);
      packet.timestamp = view.timestamp;
      packet.data.assign(view.data.begin(), view.data.end());
      sink(packet);
      ++count;
    }
  }
  return count;
}

threat::IntelDb TelescopeGenerator::make_intel_db() const {
  threat::IntelDb db;
  for (const auto host : research_hosts_) {
    db.add(host, threat::Category::kBenign, {threat::tags::kResearch});
  }
  for (const auto& source : truth_.botnet_sources) {
    if (source.tagged_malicious) {
      db.add(source.address, threat::Category::kMalicious, {source.tag});
    }
  }
  return db;
}

}  // namespace quicsand::telescope
