#include "net/pcap.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace quicsand::net {

namespace {

constexpr std::size_t kChunkSize = 64u << 10;  ///< stream bytes per read
constexpr std::uint32_t kMaxCaplen = 1u << 20;  ///< classic record cap
constexpr std::uint32_t kMaxBlockSize = 16u << 20;  ///< pcapng block cap
constexpr std::uint64_t kMicrosPerSecond = 1'000'000;
constexpr std::uint16_t kEthertypeVlan = 0x8100;  ///< 802.1Q tag
constexpr std::uint16_t kEthertypeQinQ = 0x88a8;  ///< 802.1ad tag

// Capture headers are in the capturing host's byte order: we write
// little-endian and byte-swap on read when the magic says otherwise.
void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

std::uint32_t bswap32(std::uint32_t v) { return __builtin_bswap32(v); }

void bump(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->add(n);
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path, std::uint32_t linktype)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("PcapWriter: cannot open " + path);
  std::array<std::uint8_t, 24> header{};
  put_u32le(&header[0], kPcapMagicMicros);
  put_u32le(&header[4], 2 | 4u << 16);  // version 2.4
  put_u32le(&header[8], 0);   // thiszone
  put_u32le(&header[12], 0);  // sigfigs
  put_u32le(&header[16], 65535);  // snaplen
  put_u32le(&header[20], linktype);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

void PcapWriter::write(const RawPacket& packet) {
  std::array<std::uint8_t, 16> rec{};
  const std::int64_t ts_us = packet.timestamp.count();
  const auto secs = static_cast<std::uint32_t>(ts_us / util::kSecond.count());
  const auto micros = static_cast<std::uint32_t>(ts_us % util::kSecond.count());
  put_u32le(&rec[0], secs);
  put_u32le(&rec[4], micros);
  put_u32le(&rec[8], static_cast<std::uint32_t>(packet.data.size()));
  put_u32le(&rec[12], static_cast<std::uint32_t>(packet.data.size()));
  out_.write(reinterpret_cast<const char*>(rec.data()),
             static_cast<std::streamsize>(rec.size()));
  out_.write(reinterpret_cast<const char*>(packet.data.data()),
             static_cast<std::streamsize>(packet.data.size()));
  if (!out_) throw std::runtime_error("PcapWriter: write failed");
  ++count_;
}

PcapReader::PcapReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_) {
  if (!file_) throw std::runtime_error("PcapReader: cannot open " + path);
  open();
}

PcapReader::PcapReader(std::istream& in) : in_(&in) { open(); }

void PcapReader::open() {
  buf_.resize(kChunkSize);
  if (fill(4) < 4) throw std::runtime_error("PcapReader: short header");
  const std::uint32_t magic = get_u32le(buf_.data() + pos_);
  if (magic == kPcapngSectionHeader) {
    std::uint32_t type = 0;
    std::span<const std::uint8_t> body;
    next_block(type, body);
    return;
  }
  classic_ = true;
  big_endian_ = magic == bswap32(kPcapMagicMicros) ||
                magic == bswap32(kPcapMagicNanos);
  const std::uint32_t native = big_endian_ ? bswap32(magic) : magic;
  if (native != kPcapMagicMicros && native != kPcapMagicNanos) {
    throw std::runtime_error("PcapReader: bad magic");
  }
  const std::uint32_t linktype = u32(take(24) + 20);
  if (linktype != kLinktypeRaw && linktype != kLinktypeEthernet) {
    throw std::runtime_error("PcapReader: unsupported linktype " +
                             std::to_string(linktype));
  }
  interfaces_.push_back(
      {linktype, native == kPcapMagicNanos ? 1'000'000'000 : kMicrosPerSecond});
}

/// Buffers at least `n` unread bytes unless the stream ends first;
/// returns how many are buffered.
std::size_t PcapReader::fill(std::size_t n) {
  if (end_ - pos_ >= n) return end_ - pos_;
  if (pos_ > 0) std::copy(buf_.data() + pos_, buf_.data() + end_, buf_.data());
  end_ -= pos_;
  pos_ = 0;
  if (buf_.size() < n) buf_.resize(n);
  in_->read(reinterpret_cast<char*>(buf_.data() + end_),
            static_cast<std::streamsize>(buf_.size() - end_));
  end_ += static_cast<std::size_t>(in_->gcount());
  return end_;
}

/// True when the capture ended cleanly, at a record or block boundary.
bool PcapReader::at_end() { return fill(1) == 0; }

/// The next `n` bytes, valid until the next take. Throws when the
/// capture ends before them.
const std::uint8_t* PcapReader::take(std::size_t n) {
  if (fill(n) < n) truncated("PcapReader: truncated record or block");
  const std::uint8_t* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

void PcapReader::truncated(const char* what) {
  bump(truncated_counter_);
  throw std::runtime_error(what);
}

std::uint16_t PcapReader::u16(const std::uint8_t* p) const {
  return big_endian_ ? static_cast<std::uint16_t>((p[0] << 8) | p[1])
                     : static_cast<std::uint16_t>((p[1] << 8) | p[0]);
}

std::uint32_t PcapReader::u32(const std::uint8_t* p) const {
  return big_endian_ ? bswap32(get_u32le(p)) : get_u32le(p);
}

/// Reads the next pcapng block; false at a clean end. `body` leaves out
/// the type, the length and the trailing copy of the length, and is valid
/// until the next take. A Section Header Block starts a new section: it
/// sets the byte order and empties the interface table.
bool PcapReader::next_block(std::uint32_t& type,
                            std::span<const std::uint8_t>& body) {
  if (at_end()) return false;
  const std::uint8_t* head = take(8);
  type = u32(head);
  const std::uint32_t raw_length = get_u32le(head + 4);
  std::uint32_t consumed = 8;
  if (type == kPcapngSectionHeader) {
    // The length is in the section's byte order, which only the
    // byte-order magic after it tells.
    const std::uint32_t magic = get_u32le(take(4));
    big_endian_ = magic == bswap32(kPcapngByteOrderMagic);
    if (!big_endian_ && magic != kPcapngByteOrderMagic) {
      throw std::runtime_error("PcapReader: bad byte-order magic");
    }
    interfaces_.clear();
    consumed = 12;
  }
  const std::uint32_t length = big_endian_ ? bswap32(raw_length) : raw_length;
  if (length < consumed + 4 || length % 4 != 0) {
    throw std::runtime_error("PcapReader: bad block length");
  }
  if (length > kMaxBlockSize) truncated("PcapReader: oversized block");
  const std::uint8_t* rest = take(length - consumed);
  body = {rest, length - consumed - 4};
  if (u32(rest + body.size()) != length) {
    throw std::runtime_error("PcapReader: block length mismatch");
  }
  return true;
}

void PcapReader::add_interface(std::span<const std::uint8_t> body) {
  if (body.size() < 8) throw std::runtime_error("PcapReader: short IDB");
  Interface iface{u16(body.data()), kMicrosPerSecond};
  // Walk options for if_tsresol (code 9).
  std::size_t offset = 8;
  while (offset + 4 <= body.size()) {
    const std::uint16_t code = u16(body.data() + offset);
    const std::uint16_t length = u16(body.data() + offset + 2);
    offset += 4;
    if (code == 0 || offset + length > body.size()) break;  // opt_endofopt
    if (code == 9 && length >= 1) {
      const bool binary = (body[offset] & 0x80) != 0;
      const int exponent = body[offset] & 0x7f;
      // Resolutions that overflow uint64 ticks per second (2^64, 10^20,
      // ...) cannot describe a real capture; reject instead of wrapping.
      if (binary ? exponent > 63 : exponent > 19) {
        throw std::runtime_error("PcapReader: unsupported if_tsresol");
      }
      iface.ticks_per_second = 1;
      for (int i = 0; i < exponent; ++i) {
        iface.ticks_per_second *= binary ? 2 : 10;
      }
    }
    offset += (length + 3u) & ~3u;  // options are 4-byte padded
  }
  interfaces_.push_back(iface);
}

/// The step both formats share: stamp the frame and unwrap its link
/// layer, in place in the buffer. nullopt for a link type we cannot
/// unwrap.
std::optional<PacketView> PcapReader::make_packet(
    const Interface& iface, std::uint64_t ticks,
    std::span<const std::uint8_t> frame) {
  // Ticks to microseconds in 128-bit integer math: a fabricated stamp
  // near 2^64 at one tick per second overflows int64 microseconds.
  const unsigned __int128 micros =
      iface.ticks_per_second == kMicrosPerSecond
          ? ticks
          : static_cast<unsigned __int128>(ticks) * kMicrosPerSecond /
                iface.ticks_per_second;
  if (micros > static_cast<std::uint64_t>(
                   std::numeric_limits<util::Timestamp::rep>::max())) {
    throw std::runtime_error("PcapReader: timestamp out of range");
  }
  if (iface.linktype == kLinktypeEthernet) {
    // Two MAC addresses, then EtherTypes until one that is not a tag.
    std::size_t offset = 12;
    for (bool tag = true; tag; offset += tag ? 4 : 2) {
      if (frame.size() < offset + 2) {
        truncated("PcapReader: short ethernet frame");
      }
      const std::uint16_t ethertype = util::load_be16(frame, offset);
      tag = ethertype == kEthertypeVlan || ethertype == kEthertypeQinQ;
    }
    frame = frame.subspan(offset);
    bump(ethernet_counter_);
  } else if (iface.linktype != kLinktypeRaw) {
    bump(linktype_drops_counter_);
    return std::nullopt;
  }
  bump(packets_counter_);
  bump(bytes_counter_, frame.size());
  return PacketView{util::Timestamp{static_cast<std::int64_t>(micros)}, frame};
}

void PcapReader::set_metrics(obs::MetricsRegistry* metrics) {
  auto counter = [&](const char* name, const char* help) {
    return metrics == nullptr ? nullptr : &metrics->counter(name, help);
  };
  packets_counter_ = counter("pcap.packets_read", "packets read");
  bytes_counter_ = counter("pcap.bytes_read", "captured payload bytes read");
  truncated_counter_ = counter(
      "pcap.truncated", "records cut short by EOF or a bad length");
  ethernet_counter_ = counter("pcap.ethernet_stripped",
                              "LINKTYPE_ETHERNET frames unwrapped");
  skipped_blocks_counter_ = counter(
      "pcap.blocks_skipped", "pcapng blocks other than SHB, IDB and EPB");
  linktype_drops_counter_ = counter("pcap.linktype_drops",
                                    "packets on unsupported link types");
  read_us_ = metrics == nullptr
                 ? nullptr
                 : &metrics->histogram("pcap.read_us", "wall time per packet");
}

std::optional<PacketView> PcapReader::next() {
  const obs::ScopedLatency latency(read_us_);
  if (classic_) {
    if (at_end()) return std::nullopt;
    const std::uint8_t* rec = take(16);
    const std::uint64_t secs = u32(rec);
    const std::uint32_t frac = u32(rec + 4);
    const std::uint32_t caplen = u32(rec + 8);
    if (caplen > kMaxCaplen) truncated("PcapReader: absurd caplen");
    const Interface& iface = interfaces_.front();
    return make_packet(iface, secs * iface.ticks_per_second + frac,
                       {take(caplen), caplen});
  }
  std::uint32_t type = 0;
  std::span<const std::uint8_t> body;
  while (next_block(type, body)) {
    if (type == kPcapngInterfaceDescription) {
      add_interface(body);
    } else if (type == kPcapngEnhancedPacket) {
      if (body.size() < 20) throw std::runtime_error("PcapReader: short EPB");
      const std::uint32_t id = u32(body.data());
      const std::uint64_t ticks =
          (std::uint64_t{u32(body.data() + 4)} << 32) | u32(body.data() + 8);
      const std::uint32_t caplen = u32(body.data() + 12);
      if (id >= interfaces_.size()) {
        throw std::runtime_error("PcapReader: packet for unknown interface");
      }
      // 64-bit sum: `20 + caplen` wraps in uint32 near UINT32_MAX.
      if (std::uint64_t{20} + caplen > body.size()) {
        truncated("PcapReader: packet data truncated");
      }
      if (auto p = make_packet(interfaces_[id], ticks,
                                body.subspan(20, caplen))) {
        return p;
      }
    } else if (type != kPcapngSectionHeader) {
      // SPBs (no timestamp), statistics, name resolution, custom blocks.
      bump(skipped_blocks_counter_);
    }
  }
  return std::nullopt;
}

std::uint64_t PcapReader::for_each(
    const std::function<void(PacketView)>& fn) {
  std::uint64_t n = 0;
  for (; auto packet = next(); ++n) fn(*packet);
  return n;
}

}  // namespace quicsand::net
