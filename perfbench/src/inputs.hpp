// Workload inputs: the scenarios each workload generates from its seed,
// and the packet sources that feed them to the pipeline one RecordBatch
// at a time (the telescope generator itself, or a pcap image replayed
// through net::PcapReader from memory).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>

#include "asdb/registry.hpp"
#include "core/pipeline.hpp"
#include "net/pcap.hpp"
#include "net/record_batch.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "telescope/scenario.hpp"

namespace perfbench {

namespace qs = quicsand;

/// The AS registry and scanner deployment every scenario draws from.
struct World {
  qs::asdb::AsRegistry registry;
  qs::scanner::Deployment deployment;
};
std::unique_ptr<World> make_world();

// Every scenario is one day on a /16 with the flood size distributions
// narrowed (log-normal sigma 0.5 for duration and peak rate, against
// 0.9-1.5 in the paper calibration) and flood counts raised to keep the
// volume: with the paper's heavy tails a handful of floods would carry
// most packets and two seeds would give very different inputs. Each
// workload also stops at a fixed packet budget, so every seed offers the
// same number of packets.

/// gen_backscatter: the fig06 light scenario (no research scanners; TCP/
/// ICMP flood backscatter dominates).
qs::telescope::ScenarioConfig backscatter_scenario(std::uint64_t seed);
constexpr std::uint64_t kBackscatterPackets = 500000;
/// pcap_quicscan: the paper's QUIC mix: TUM/RWTH research passes,
/// botnet request sessions and QUIC floods, TCP/ICMP floods turned down.
qs::telescope::ScenarioConfig quicscan_scenario(std::uint64_t seed);
constexpr std::uint64_t kQuicscanPackets = 450000;
/// live_loopback: rich in QUIC floods so that many alerts fire.
qs::telescope::ScenarioConfig flood_scenario(std::uint64_t seed);

/// Analysis options for a scenario (research prefixes from `world`).
qs::core::PipelineOptions pipeline_options(
    const qs::telescope::ScenarioConfig& config, const World& world);

/// Feeds one pass over a workload's input. prepare() does the per-pass
/// work that is not timed (planning a scenario, opening a reader);
/// fill() clears `batch` and appends the next packets in time order,
/// returning how many (0 = done).
class PacketSource {
 public:
  virtual ~PacketSource() = default;
  virtual void prepare() = 0;
  virtual std::size_t fill(qs::net::RecordBatch& batch) = 0;
  /// Layer name of fill(): "telescope.next_batch" or "net.pcap_read".
  [[nodiscard]] virtual const char* layer() const = 0;
};

/// The scenario's first `limit` packets, straight from the generator.
class GeneratorSource final : public PacketSource {
 public:
  GeneratorSource(qs::telescope::ScenarioConfig config, const World& world,
                  std::uint64_t limit)
      : config_(std::move(config)), world_(world), limit_(limit) {}
  void prepare() override;
  std::size_t fill(qs::net::RecordBatch& batch) override;
  [[nodiscard]] const char* layer() const override {
    return "telescope.next_batch";
  }

 private:
  qs::telescope::ScenarioConfig config_;
  const World& world_;
  std::uint64_t limit_;
  std::uint64_t emitted_ = 0;
  std::unique_ptr<qs::telescope::TelescopeGenerator> generator_;
};

/// Read-only streambuf over bytes owned elsewhere: PcapReader reads the
/// in-memory image without copying it.
class MemoryBuf final : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

class PcapSource final : public PacketSource {
 public:
  explicit PcapSource(const std::string& image) : image_(image) {}
  void prepare() override;
  std::size_t fill(qs::net::RecordBatch& batch) override;
  [[nodiscard]] const char* layer() const override { return "net.pcap_read"; }

 private:
  const std::string& image_;
  std::unique_ptr<MemoryBuf> buf_;
  std::unique_ptr<std::istream> stream_;
  std::unique_ptr<qs::net::PcapReader> reader_;
  std::optional<qs::net::RawPacket> pending_;  ///< did not fit last batch
};

/// The scenario's first `limit` packets as a classic pcap image
/// (LINKTYPE_RAW, microsecond stamps: the layout net::PcapWriter writes).
std::string make_pcap_image(const qs::telescope::ScenarioConfig& config,
                            const World& world, std::uint64_t limit);

}  // namespace perfbench
