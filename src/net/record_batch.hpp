// Reusable structure-of-arrays batch of raw packets for the batched
// generation/ingest hot path.
//
// A RecordBatch owns a fixed-capacity byte arena plus parallel columns of
// timestamps and (offset, length) extents.  Producers either reserve a
// packet's arena region with append() and write it in place, or copy a
// finished packet in with try_append(); consumers read them back as
// non-owning views.  clear() resets the batch without releasing memory,
// so after the first fill a batch performs zero heap allocations in
// steady state — the property the zero-alloc test in
// tests/net_record_batch_test.cpp pins.  The arena is not zero-filled:
// a region append() hands out holds whatever the arena held before, so
// a producer must write every byte it appends (pinned by
// telescope_stream_golden_test), and pages no packet reached are never
// touched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"

namespace quicsand::net {

class RecordBatch {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kDefaultArenaBytes = 1u << 20;  // 1 MiB

  explicit RecordBatch(std::size_t capacity = kDefaultCapacity,
                       std::size_t arena_bytes = kDefaultArenaBytes)
      : capacity_(capacity),
        arena_(std::make_unique_for_overwrite<std::uint8_t[]>(arena_bytes)),
        arena_bytes_(arena_bytes) {
    timestamps_.reserve(capacity);
    offsets_.reserve(capacity);
    lengths_.reserve(capacity);
  }

  /// A moved-from batch is empty with no capacity and no arena.
  RecordBatch(RecordBatch&& other) noexcept
      : capacity_(std::exchange(other.capacity_, 0)),
        arena_(std::move(other.arena_)),
        arena_bytes_(std::exchange(other.arena_bytes_, 0)),
        arena_used_(std::exchange(other.arena_used_, 0)),
        timestamps_(std::move(other.timestamps_)),
        offsets_(std::move(other.offsets_)),
        lengths_(std::move(other.lengths_)) {}
  RecordBatch& operator=(RecordBatch&& other) noexcept {
    RecordBatch moved(std::move(other));
    swap(*this, moved);
    return *this;
  }
  RecordBatch(const RecordBatch&) = delete;
  RecordBatch& operator=(const RecordBatch&) = delete;

  [[nodiscard]] std::size_t size() const { return timestamps_.size(); }
  [[nodiscard]] bool empty() const { return timestamps_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t arena_bytes() const { return arena_bytes_; }
  [[nodiscard]] std::size_t arena_used() const { return arena_used_; }

  /// True if one more packet of `bytes` length fits (both a free record
  /// slot and arena room).
  [[nodiscard]] bool has_room(std::size_t bytes) const {
    return timestamps_.size() < capacity_ &&
           arena_used_ + bytes <= arena_bytes_;
  }

  /// Append one packet of `size` bytes and return its arena region, for
  /// the caller to fill in place before the batch is read. Throws
  /// std::length_error when !has_room(size).
  std::span<std::uint8_t> append(util::Timestamp timestamp,
                                 std::size_t size) {
    if (!has_room(size)) throw std::length_error("RecordBatch::append");
    const std::span<std::uint8_t> region(arena_.get() + arena_used_, size);
    timestamps_.push_back(timestamp);
    offsets_.push_back(static_cast<std::uint32_t>(arena_used_));
    lengths_.push_back(static_cast<std::uint32_t>(size));
    arena_used_ += size;
    return region;
  }

  /// Append one packet by copying its bytes into the arena. Returns false
  /// (batch unchanged) when full; the caller then drains the batch and
  /// retries after clear().
  bool try_append(util::Timestamp timestamp,
                  std::span<const std::uint8_t> data) {
    if (!has_room(data.size())) return false;
    std::copy(data.begin(), data.end(),
              append(timestamp, data.size()).begin());
    return true;
  }

  [[nodiscard]] PacketView view(std::size_t i) const {
    return PacketView{timestamps_[i],
                      std::span<const std::uint8_t>(
                          arena_.get() + offsets_[i], lengths_[i])};
  }

  [[nodiscard]] const std::vector<util::Timestamp>& timestamps() const {
    return timestamps_;
  }

  /// Drop records past the first `n`, keeping arena storage (the arena
  /// high-water mark stays where the last surviving record ends). Lets a
  /// batch-fed sender honor an exact packet budget mid-batch.
  void truncate(std::size_t n) {
    if (n >= timestamps_.size()) return;
    arena_used_ = n == 0 ? 0 : offsets_[n - 1] + lengths_[n - 1];
    timestamps_.resize(n);
    offsets_.resize(n);
    lengths_.resize(n);
  }

  /// Reset to empty, keeping record capacity and arena storage.
  void clear() {
    timestamps_.clear();
    offsets_.clear();
    lengths_.clear();
    arena_used_ = 0;
  }

  friend void swap(RecordBatch& a, RecordBatch& b) noexcept {
    using std::swap;
    swap(a.capacity_, b.capacity_);
    swap(a.arena_, b.arena_);
    swap(a.arena_bytes_, b.arena_bytes_);
    swap(a.arena_used_, b.arena_used_);
    swap(a.timestamps_, b.timestamps_);
    swap(a.offsets_, b.offsets_);
    swap(a.lengths_, b.lengths_);
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<std::uint8_t[]> arena_;
  std::size_t arena_bytes_;
  std::size_t arena_used_ = 0;
  std::vector<util::Timestamp> timestamps_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> lengths_;
};

}  // namespace quicsand::net
