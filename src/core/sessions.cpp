#include "core/sessions.hpp"

#include <algorithm>
#include <utility>

namespace quicsand::core {

namespace {

// Minute slots, counts and `end`: what every session's readers need.
void absorb_record(Session& session, const PacketRecord& record) {
  session.end = std::max(session.end, record.timestamp);
  ++session.packets;
  session.bytes += record.wire_size;
  // Boundary packets (elapsed time an exact multiple of a minute) close
  // the previous slot instead of opening a new one; otherwise a 1 µs
  // timing difference around the boundary would flip peak_pps() across
  // the DoS threshold.
  const auto elapsed = record.timestamp - session.start;
  const auto slot =
      elapsed <= util::Duration{}
          ? util::MinuteBin{}
          : util::MinuteBin{(elapsed - util::kMicrosecond) / util::kMinute};
  const auto minute = static_cast<std::size_t>(slot.count());
  if (session.minute_counts.size() <= minute) {
    session.minute_counts.resize(minute + 1, 0);
  }
  ++session.minute_counts[minute];
  for (std::size_t k = 0; k < kQuicKindCount; ++k) {
    session.kind_counts[k] += record.kind_counts[k];
  }
}

// The 5-minute rule (§5.1): quiet for more than the timeout.
bool expired(const Session& session, util::Timestamp now,
             util::Duration timeout) {
  return now - session.end > timeout;
}

}  // namespace

void absorb_distinct(Session& session, const PacketRecord& record) {
  if (record.has_scid) session.scids.insert(record.scid_hash);
  // The "peer" is the other endpoint: the telescope-side destination.
  session.peers.insert(record.dst.value());
  session.peer_ports.insert(
      (static_cast<std::uint64_t>(record.dst.value()) << 16) |
      record.dst_port);
  if (record.quic_version != 0) {
    ++session.version_counts[record.quic_version];
  }
}

bool session_before(const Session& a, const Session& b) {
  return a.start < b.start || (a.start == b.start && a.source < b.source);
}

std::uint32_t Session::dominant_version() const {
  std::uint32_t best_version = 0;
  std::uint64_t best_count = 0;
  for (const auto& [version, count] : version_counts) {
    if (count > best_count) {
      best_count = count;
      best_version = version;
    }
  }
  return best_version;
}

OpenSession* SessionTable::absorb(const PacketRecord& record) {
  if (!accepts(filter_, record)) return nullptr;
  auto [it, opened] = open_.try_emplace(record.src.value());
  OpenSession& open = it->second;
  if (!opened && expired(open.session, record.timestamp, timeout_)) {
    closed_.push_back(std::move(open.session));
    open = OpenSession{};
    opened = true;
  }
  if (opened) {
    open.session.source = record.src;
    open.session.start = record.timestamp;
    open.session.end = record.timestamp;
  } else if (record.timestamp < open.session.start) {
    ++late_;
  }
  absorb_record(open.session, record);
  return &open;
}

void SessionTable::close_idle(util::Timestamp now) {
  std::erase_if(open_, [&](auto& entry) {
    if (!expired(entry.second.session, now, timeout_)) return false;
    closed_.push_back(std::move(entry.second.session));
    return true;
  });
}

std::vector<Session> SessionTable::close_all() {
  auto sessions = std::exchange(closed_, {});
  sessions.reserve(sessions.size() + open_.size());
  for (auto& [source, open] : open_) {
    sessions.push_back(std::move(open.session));
  }
  open_.clear();
  std::sort(sessions.begin(), sessions.end(), session_before);
  return sessions;
}

std::vector<Session> build_sessions(std::span<const PacketRecord> records,
                                    util::Duration timeout,
                                    RecordFilter filter) {
  SessionTable table(timeout, filter);
  for (const auto& record : records) {
    OpenSession* open = table.absorb(record);
    if (open != nullptr && filter == RecordFilter::kQuicResponses) {
      absorb_distinct(open->session, record);
    }
  }
  return table.close_all();
}

SessionMerge merge_sessions(std::vector<std::vector<Session>> parts) {
  SessionMerge merge;
  merge.global_index.resize(parts.size());
  std::size_t total = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    total += parts[p].size();
    merge.global_index[p].resize(parts[p].size());
  }
  merge.sessions.reserve(total);
  std::vector<std::size_t> cursor(parts.size(), 0);
  while (merge.sessions.size() < total) {
    std::size_t best = parts.size();
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (cursor[p] >= parts[p].size()) continue;
      if (best == parts.size() ||
          session_before(parts[p][cursor[p]], parts[best][cursor[best]])) {
        best = p;
      }
    }
    merge.global_index[best][cursor[best]] = merge.sessions.size();
    merge.sessions.push_back(std::move(parts[best][cursor[best]]));
    ++cursor[best];
  }
  return merge;
}

void GapCollector::absorb(const PacketRecord& record) {
  if (!accepts(filter_, record)) return;
  const auto [it, inserted] =
      last_seen_.try_emplace(record.src.value(), record.timestamp);
  if (!inserted) {
    gaps_.push_back(record.timestamp - it->second);
    it->second = record.timestamp;
  }
}

GapProfile GapCollector::take() {
  GapProfile profile{last_seen_.size(), std::exchange(gaps_, {})};
  last_seen_.clear();
  return profile;
}

GapProfile collect_gap_profile(std::span<const PacketRecord> records,
                               RecordFilter filter) {
  GapCollector collector(filter);
  for (const auto& record : records) collector.absorb(record);
  return collector.take();
}

void merge_gap_profiles(GapProfile& into, const GapProfile& from) {
  into.sources += from.sources;
  into.gaps.insert(into.gaps.end(), from.gaps.begin(), from.gaps.end());
}

std::vector<std::pair<util::Duration, std::uint64_t>> sweep_counts(
    GapProfile profile, std::span<const util::Duration> timeouts) {
  auto& gaps = profile.gaps;
  std::sort(gaps.begin(), gaps.end());
  std::vector<std::pair<util::Duration, std::uint64_t>> out;
  out.reserve(timeouts.size());
  for (const auto timeout : timeouts) {
    const auto it = std::upper_bound(gaps.begin(), gaps.end(), timeout);
    const auto above = static_cast<std::uint64_t>(gaps.end() - it);
    out.emplace_back(timeout, profile.sources + above);
  }
  return out;
}

std::vector<std::pair<util::Duration, std::uint64_t>> timeout_sweep(
    std::span<const PacketRecord> records,
    std::span<const util::Duration> timeouts, RecordFilter filter) {
  return sweep_counts(collect_gap_profile(records, filter), timeouts);
}

}  // namespace quicsand::core
