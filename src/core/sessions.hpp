// Sessionization (§5.1): packets from one source belong to the same
// session while the inactivity gap stays below a timeout. The paper picks
// 5 minutes from the knee of the session-count-vs-timeout curve (Fig. 4),
// matching Moore et al.'s established thresholds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/record.hpp"
#include "core/units.hpp"

namespace quicsand::core {

struct Session {
  net::Ipv4Address source;
  util::Timestamp start{};
  util::Timestamp end{};
  PacketCount packets{};
  std::uint64_t bytes = 0;
  /// Packet count per 1-minute slot since `start` (max-pps computation).
  std::vector<std::uint32_t> minute_counts;
  /// Distinct SCIDs, peer addresses and (addr, port) pairs. These sets
  /// and `version_counts` feed Figure 9 (profile_providers) only, so only
  /// batch kQuicResponses sessions fill them (absorb_distinct).
  std::unordered_set<std::uint64_t> scids;
  std::unordered_set<std::uint32_t> peers;
  std::unordered_set<std::uint64_t> peer_ports;
  /// QUIC message composition and version mix.
  std::array<std::uint64_t, kQuicKindCount> kind_counts{};
  std::unordered_map<std::uint32_t, std::uint64_t> version_counts;

  [[nodiscard]] util::Duration duration() const { return end - start; }

  /// Highest 1-minute packet rate, in packets per second.
  [[nodiscard]] Pps peak_pps() const {
    std::uint32_t best = 0;
    for (const auto c : minute_counts) best = std::max(best, c);
    return per_minute_rate(best);
  }

  /// Dominant QUIC version (most packets); 0 when none seen, and always
  /// 0 outside the response group, which alone fills `version_counts`.
  [[nodiscard]] std::uint32_t dominant_version() const;

  friend bool operator==(const Session&, const Session&) = default;
};

/// Add `record` to the session's distinct sets and version map. Only
/// the batch callers of a kQuicResponses SessionTable call it, on the
/// entry absorb() returns.
void absorb_distinct(Session& session, const PacketRecord& record);

/// Strict ordering of session lists: by start time, ties broken by
/// source. Two distinct sessions never compare equal (a source's
/// sessions are time-disjoint), so sorted output is unique.
[[nodiscard]] bool session_before(const Session& a, const Session& b);

/// The record groups the analyses sessionize.
enum class RecordFilter : std::uint8_t {
  kQuicRequests,       ///< QUIC requests, research scanners excluded
  kQuicResponses,      ///< QUIC responses, research scanners excluded
  kCommonBackscatter,  ///< TCP + ICMP backscatter
  kSanitizedQuic,      ///< both QUIC directions, research excluded
};

/// True when `record` belongs to `filter`'s group.
[[nodiscard]] constexpr bool accepts(RecordFilter filter,
                                     const PacketRecord& record) {
  switch (filter) {
    case RecordFilter::kQuicRequests:
      return record.cls == TrafficClass::kQuicRequest && !record.is_research;
    case RecordFilter::kQuicResponses:
      return record.cls == TrafficClass::kQuicResponse && !record.is_research;
    case RecordFilter::kCommonBackscatter:
      return record.cls == TrafficClass::kTcpBackscatter ||
             record.cls == TrafficClass::kIcmpBackscatter;
    case RecordFilter::kSanitizedQuic:
      return record.is_quic() && !record.is_research;
  }
  return false;
}

/// Named shorthands for the four groups.
constexpr RecordFilter quic_request_filter() {
  return RecordFilter::kQuicRequests;
}
constexpr RecordFilter quic_response_filter() {
  return RecordFilter::kQuicResponses;
}
constexpr RecordFilter common_backscatter_filter() {
  return RecordFilter::kCommonBackscatter;
}
constexpr RecordFilter sanitized_quic_filter() {
  return RecordFilter::kSanitizedQuic;
}

/// A source's open session in a SessionTable, with what the streaming
/// detector tracks while it stays open. Batch tables leave the extra
/// fields at their defaults, and closing an entry keeps only its Session.
struct OpenSession {
  Session session;
  bool alerted = false;  ///< the streaming detector alerted on it
  /// Wall-clock stamps of the first admitted packet (-1 unknown).
  std::int64_t first_send_wall_us = -1;
  std::int64_t first_recv_wall_us = -1;
};

/// The sessions of one record group, built one record at a time: an
/// open entry per source and a list of closed sessions. It is the one
/// implementation of the inactivity timeout: build_sessions and every
/// ParallelPipeline and ShardedOnlineDetector shard run it. Each
/// source's records must arrive in time order; how sources interleave
/// does not matter. Minute slots are (i·60s, (i+1)·60s] from the session
/// start, the start packet in slot 0, so a packet exactly 60 s in
/// belongs to the closing minute rather than a phantom trailing slot.
class SessionTable {
 public:
  SessionTable(util::Duration timeout, RecordFilter filter)
      : timeout_(timeout), filter_(filter) {}

  /// Fold in one record, first closing its source's session if that has
  /// expired. Returns the entry the record joined, valid until the next
  /// close_idle or close_all, or nullptr for a record outside the group.
  /// A late record (older than its session's start) counts in slot 0,
  /// and `end` never moves backwards.
  OpenSession* absorb(const PacketRecord& record);

  /// Close every session idle for more than the timeout at `now`.
  void close_idle(util::Timestamp now);

  /// Close the open sessions and return every session, sorted by
  /// session_before. The table is left empty.
  [[nodiscard]] std::vector<Session> close_all();

  /// The sessions closed so far, in close order; clear() drains it.
  [[nodiscard]] std::vector<Session>& closed() { return closed_; }
  [[nodiscard]] std::size_t open_sessions() const { return open_.size(); }
  /// Records older than their session's start.
  [[nodiscard]] std::uint64_t late_records() const { return late_; }

 private:
  util::Duration timeout_;
  RecordFilter filter_;
  std::unordered_map<std::uint32_t, OpenSession> open_;  ///< by source
  std::vector<Session> closed_;
  std::uint64_t late_ = 0;
};

/// Group the filtered records into per-source sessions (a SessionTable
/// over `records`), sorted by start time.
std::vector<Session> build_sessions(std::span<const PacketRecord> records,
                                    util::Duration timeout,
                                    RecordFilter filter);

/// K-way merge of session lists each sorted by `session_before` (the
/// order build_sessions returns). When the parts partition the record
/// stream by source, the merged list is identical to sessionizing the
/// whole stream at once — sessionization is source-local.
struct SessionMerge {
  std::vector<Session> sessions;
  /// global_index[part][i] = position of part's i-th session in
  /// `sessions` (for remapping per-part DetectedAttack indices).
  std::vector<std::vector<std::size_t>> global_index;
};

SessionMerge merge_sessions(std::vector<std::vector<Session>> parts);

/// Per-source inactivity gaps of a filtered record stream — the
/// sufficient statistic for the timeout sweep. Profiles of a
/// source-partitioned stream combine by summing `sources` and
/// concatenating `gaps`.
struct GapProfile {
  std::uint64_t sources = 0;
  std::vector<util::Duration> gaps;  ///< unsorted
};

/// Collects a GapProfile one record at a time: the last-seen stamp per
/// source and the gap to each source's previous record.
class GapCollector {
 public:
  explicit GapCollector(RecordFilter filter) : filter_(filter) {}

  /// Fold in one record; records outside the filter's group are ignored.
  void absorb(const PacketRecord& record);

  /// The profile collected so far. The collector is left empty.
  [[nodiscard]] GapProfile take();

 private:
  RecordFilter filter_;
  std::unordered_map<std::uint32_t, util::Timestamp> last_seen_;
  std::vector<util::Duration> gaps_;
};

GapProfile collect_gap_profile(std::span<const PacketRecord> records,
                               RecordFilter filter);
void merge_gap_profiles(GapProfile& into, const GapProfile& from);

/// Session count per timeout from a gap profile: for timeout T the count
/// is `sources` + the number of gaps above T.
std::vector<std::pair<util::Duration, std::uint64_t>> sweep_counts(
    GapProfile profile, std::span<const util::Duration> timeouts);

/// Number of sessions for each timeout in `timeouts` (Figure 4 sweep),
/// computed in one pass over the inactivity-gap distribution. A timeout
/// of util::Duration max plays the role of the paper's timeout=inf lower
/// bound (one session per source).
std::vector<std::pair<util::Duration, std::uint64_t>> timeout_sweep(
    std::span<const PacketRecord> records,
    std::span<const util::Duration> timeouts, RecordFilter filter);

}  // namespace quicsand::core
