#include "inputs.hpp"

namespace perfbench {

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u16le(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>(v >> 8));
}

constexpr double kFloodSigma = 0.5;

qs::telescope::ScenarioConfig one_day_on_slash16(std::uint64_t seed) {
  auto config = qs::telescope::ScenarioConfig::april2021(1, seed);
  config.telescope = {qs::net::Ipv4Address::from_octets(44, 0, 0, 0), 16};
  auto& attacks = config.attacks;
  attacks.quic_duration_sigma = kFloodSigma;
  attacks.quic_peak_pps_sigma = kFloodSigma;
  attacks.common_duration_sigma = kFloodSigma;
  attacks.common_peak_pps_sigma = kFloodSigma;
  return config;
}

}  // namespace

std::unique_ptr<World> make_world() {
  auto registry = qs::asdb::AsRegistry::synthetic({}, 2021);
  auto deployment = qs::scanner::Deployment::synthetic(registry, {}, 2021);
  return std::make_unique<World>(
      World{std::move(registry), std::move(deployment)});
}

qs::telescope::ScenarioConfig backscatter_scenario(std::uint64_t seed) {
  auto config = one_day_on_slash16(seed);
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = 2400;
  return config;
}

qs::telescope::ScenarioConfig quicscan_scenario(std::uint64_t seed) {
  auto config = one_day_on_slash16(seed);
  config.tum.passes_per_day = 3;
  config.rwth.passes_per_day = 3;
  config.attacks.common_attacks_per_day = 30;
  return config;
}

qs::telescope::ScenarioConfig flood_scenario(std::uint64_t seed) {
  auto config = one_day_on_slash16(seed);
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.quic_attacks_per_day = 3000;
  config.attacks.common_attacks_per_day = 60;
  return config;
}

qs::core::PipelineOptions pipeline_options(
    const qs::telescope::ScenarioConfig& config, const World& world) {
  qs::core::PipelineOptions options;
  options.window_start = config.start;
  options.days = config.days;
  for (const auto asn : {qs::asdb::AsRegistry::kTumScanner,
                         qs::asdb::AsRegistry::kRwthScanner}) {
    options.research_prefixes.push_back(
        world.registry.prefixes_of(asn).front());
  }
  return options;
}

void GeneratorSource::prepare() {
  generator_ = std::make_unique<qs::telescope::TelescopeGenerator>(
      config_, world_.registry, world_.deployment);
  emitted_ = 0;
}

std::size_t GeneratorSource::fill(qs::net::RecordBatch& batch) {
  if (emitted_ >= limit_) return 0;
  generator_->next_batch(batch);
  batch.truncate(static_cast<std::size_t>(limit_ - emitted_));
  emitted_ += batch.size();
  return batch.size();
}

void PcapSource::prepare() {
  reader_.reset();
  buf_ = std::make_unique<MemoryBuf>(image_);
  stream_ = std::make_unique<std::istream>(buf_.get());
  reader_ = std::make_unique<qs::net::PcapReader>(*stream_);
  pending_.reset();
}

std::size_t PcapSource::fill(qs::net::RecordBatch& batch) {
  batch.clear();
  if (pending_) {
    batch.try_append(pending_->timestamp, pending_->data);
    pending_.reset();
  }
  while (auto packet = reader_->next()) {
    if (!batch.try_append(packet->timestamp, packet->data)) {
      pending_ = std::move(packet);
      break;
    }
  }
  return batch.size();
}

std::string make_pcap_image(const qs::telescope::ScenarioConfig& config,
                            const World& world, std::uint64_t limit) {
  std::string image;
  put_u32le(image, qs::net::kPcapMagicMicros);
  put_u16le(image, 2);  // version major
  put_u16le(image, 4);  // version minor
  put_u32le(image, 0);  // thiszone
  put_u32le(image, 0);  // sigfigs
  put_u32le(image, 65535);
  put_u32le(image, qs::net::kLinktypeRaw);
  qs::telescope::TelescopeGenerator generator(config, world.registry,
                                              world.deployment);
  qs::net::RecordBatch batch;
  std::uint64_t count = 0;
  const auto second = qs::util::kSecond.count();
  while (count < limit && generator.next_batch(batch) > 0) {
    batch.truncate(static_cast<std::size_t>(limit - count));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto view = batch.view(i);
      const auto us = view.timestamp.count();
      const auto size = static_cast<std::uint32_t>(view.data.size());
      put_u32le(image, static_cast<std::uint32_t>(us / second));
      put_u32le(image, static_cast<std::uint32_t>(us % second));
      put_u32le(image, size);
      put_u32le(image, size);
      image.append(reinterpret_cast<const char*>(view.data.data()),
                   view.data.size());
    }
    count += batch.size();
  }
  return image;
}

}  // namespace perfbench
