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
  /// Distinct counter hashes: SCIDs, peer addresses, (addr, port) pairs.
  /// These three sets and `version_counts` feed Figure 9, and
  /// profile_providers is their only reader. So only build_sessions
  /// fills them, and only for the kQuicResponses group. Every other
  /// session, and every session of the streaming detector, leaves them
  /// empty.
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

/// Fold one record into an open session (shared by build_sessions and
/// the online detector). It updates only what every reader needs:
/// `end`, packets, bytes, minute slots and kind counts. It leaves the
/// distinct sets and `version_counts` alone; build_sessions fills those
/// itself for the response group. Minute slots are (i·60s, (i+1)·60s]
/// relative to the session start, with the start packet in slot 0: a
/// packet exactly 60 s after the start has one minute of elapsed
/// activity and belongs to the closing minute rather than opening a
/// phantom trailing slot.
/// A late record (older than the session start) counts in slot 0, and
/// `end` never moves backwards.
void absorb_record(Session& session, const PacketRecord& record);

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

/// The sessions of one record group, built one record at a time. Each
/// source has at most one open session; it closes when the source's
/// next record comes more than `timeout` after the session's end. Each
/// source's records must arrive in time order (pcap / generator order);
/// how sources interleave does not matter. Only kQuicResponses sessions
/// get their distinct sets and version map filled (see Session).
/// build_sessions and every ParallelPipeline shard run this one table.
class SessionTable {
 public:
  SessionTable(util::Duration timeout, RecordFilter filter)
      : timeout_(timeout), filter_(filter) {}

  /// Fold in one record; records outside the filter's group are ignored.
  void absorb(const PacketRecord& record);

  /// Close the open sessions and return every session, sorted by start
  /// time (session_before). The table is left empty.
  [[nodiscard]] std::vector<Session> close_all();

  /// Records older than their session's start: absorb_record counts
  /// them in slot 0 and never moves `end` backwards.
  [[nodiscard]] std::uint64_t late_records() const { return late_; }

 private:
  util::Duration timeout_;
  RecordFilter filter_;
  std::vector<Session> sessions_;  ///< every session, in opening order
  /// Each source's latest session: its index in sessions_.
  std::unordered_map<std::uint32_t, std::size_t> latest_;
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
