// Telescope traffic generator: merges all scenario emitters into one
// time-ordered stream of raw IPv4 datagrams — the synthetic equivalent
// of the UCSD telescope capture the paper analyzes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "asdb/registry.hpp"
#include "net/packet.hpp"
#include "net/record_batch.hpp"
#include "scanner/deployment.hpp"
#include "telescope/emitters.hpp"
#include "telescope/ground_truth.hpp"
#include "telescope/scenario.hpp"
#include "threat/intel.hpp"

namespace quicsand::telescope {

class TelescopeGenerator {
 public:
  /// Plans the whole scenario (attack schedule, botnet sessions,
  /// research passes) up front; packets are then produced lazily.
  TelescopeGenerator(const ScenarioConfig& config,
                     const asdb::AsRegistry& registry,
                     const scanner::Deployment& deployment);

  /// Batched production: clear `batch`, then append packets in global
  /// time order until the batch is full (capacity or arena) or the
  /// window is done. Returns the number appended; zero means done.
  /// Zero heap traffic in steady state: each packet is written once,
  /// by its emitter, straight into the batch arena.
  std::size_t next_batch(net::RecordBatch& batch);

  /// Drain the stream into `sink`; returns the packet count. Production
  /// runs through next_batch() underneath — one staging RawPacket is
  /// reused across calls, so the per-packet cost is a copy into the
  /// sink's view, not an allocation.
  std::uint64_t generate(
      const std::function<void(const net::RawPacket&)>& sink);

  [[nodiscard]] const GroundTruth& ground_truth() const { return truth_; }

  /// GreyNoise-style intel reflecting this scenario's actors: research
  /// scanner hosts tagged benign, a share of botnet sources tagged
  /// malicious (Mirai / Eternalblue / bruteforcers).
  [[nodiscard]] threat::IntelDb make_intel_db() const;

 private:
  /// The merge heap holds only (time, emitter) pairs: each emitter keeps
  /// its next packet staged (drawn, not yet written) until the root is
  /// emitted into a batch. Ordering looks at time alone.
  struct MergeEntry {
    util::Timestamp time;
    std::size_t emitter_index;
  };

  /// Stage the new emitter's first packet and push its heap entry.
  void add_emitter(std::unique_ptr<PacketEmitter> emitter);
  /// After the root's packet is emitted: stage that emitter's next packet
  /// and restore the heap with a single sift-down (replace-top), or drop
  /// the emitter when it is drained or its next packet falls past the
  /// window.
  void advance_root();
  void heap_push(MergeEntry entry);
  void heap_sift_down(std::size_t i);

  ScenarioConfig config_;
  GroundTruth truth_;
  std::vector<std::unique_ptr<PacketEmitter>> emitters_;
  /// emitters_[0, research_emitters_) are the research scanners.
  std::size_t research_emitters_ = 0;
  /// Binary min-heap on MergeEntry::time.
  std::vector<MergeEntry> heap_;
  std::vector<net::Ipv4Address> research_hosts_;
};

}  // namespace quicsand::telescope
