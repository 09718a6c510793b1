#include "net/pcap.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace quicsand::net {

namespace {

// pcap headers are written in the byte order of the capturing host; we
// emit little-endian (the near-universal convention) and byte-swap on read
// when the magic indicates the opposite order.
void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) |
         (v >> 24);
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path, std::uint32_t linktype)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("PcapWriter: cannot open " + path);
  std::array<std::uint8_t, 24> header{};
  put_u32le(&header[0], kPcapMagicMicros);
  put_u16le(&header[4], 2);   // version major
  put_u16le(&header[6], 4);   // version minor
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
  read_global_header();
}

PcapReader::PcapReader(std::istream& in) : in_(&in) { read_global_header(); }

void PcapReader::read_global_header() {
  std::array<std::uint8_t, 24> header{};
  in_->read(reinterpret_cast<char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  if (in_->gcount() != 24) throw std::runtime_error("PcapReader: short header");
  std::uint32_t magic = get_u32le(&header[0]);
  if (magic == bswap32(kPcapMagicMicros)) {
    swapped_ = true;
  } else if (magic == bswap32(kPcapMagicNanos)) {
    swapped_ = true;
    nanos_ = true;
  } else if (magic == kPcapMagicNanos) {
    nanos_ = true;
  } else if (magic != kPcapMagicMicros) {
    throw std::runtime_error("PcapReader: bad magic");
  }
  std::uint32_t linktype = get_u32le(&header[20]);
  linktype_ = swapped_ ? bswap32(linktype) : linktype;
  if (linktype_ != kLinktypeRaw && linktype_ != kLinktypeEthernet) {
    throw std::runtime_error("PcapReader: unsupported linktype " +
                             std::to_string(linktype_));
  }
}

void PcapReader::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    packets_counter_ = bytes_counter_ = truncated_counter_ =
        ethernet_counter_ = nullptr;
    read_us_ = nullptr;
    return;
  }
  packets_counter_ =
      &metrics->counter("pcap.packets_read", "records read from pcap files");
  bytes_counter_ =
      &metrics->counter("pcap.bytes_read", "captured payload bytes read");
  truncated_counter_ = &metrics->counter(
      "pcap.truncated", "records cut short by EOF or a bad caplen");
  ethernet_counter_ = &metrics->counter(
      "pcap.ethernet_stripped", "LINKTYPE_ETHERNET frames unwrapped");
  read_us_ = &metrics->latency("pcap.read_us",
                               "wall time to read one record");
}

std::optional<RawPacket> PcapReader::next() {
  const obs::ScopedLatency latency(read_us_);
  std::array<std::uint8_t, 16> rec{};
  in_->read(reinterpret_cast<char*>(rec.data()),
           static_cast<std::streamsize>(rec.size()));
  if (in_->gcount() == 0) return std::nullopt;
  if (in_->gcount() != 16) {
    if (truncated_counter_ != nullptr) truncated_counter_->add();
    throw std::runtime_error("PcapReader: truncated record header");
  }
  auto fix = [&](std::uint32_t v) { return swapped_ ? bswap32(v) : v; };
  const std::uint32_t secs = fix(get_u32le(&rec[0]));
  const std::uint32_t frac = fix(get_u32le(&rec[4]));
  const std::uint32_t caplen = fix(get_u32le(&rec[8]));
  if (caplen > 1 << 20) {
    if (truncated_counter_ != nullptr) truncated_counter_->add();
    throw std::runtime_error("PcapReader: absurd caplen");
  }

  RawPacket packet;
  packet.timestamp =
      util::Timestamp{} + static_cast<std::int64_t>(secs) * util::kSecond +
      util::Duration{nanos_ ? frac / 1000 : frac};
  packet.data.resize(caplen);
  in_->read(reinterpret_cast<char*>(packet.data.data()),
           static_cast<std::streamsize>(caplen));
  if (in_->gcount() != static_cast<std::streamsize>(caplen)) {
    if (truncated_counter_ != nullptr) truncated_counter_->add();
    throw std::runtime_error("PcapReader: truncated record body");
  }
  if (linktype_ == kLinktypeEthernet) {
    if (packet.data.size() < 14) {
      if (truncated_counter_ != nullptr) truncated_counter_->add();
      throw std::runtime_error("PcapReader: short ethernet frame");
    }
    packet.data.erase(packet.data.begin(), packet.data.begin() + 14);
    if (ethernet_counter_ != nullptr) ethernet_counter_->add();
  }
  if (packets_counter_ != nullptr) {
    packets_counter_->add();
    bytes_counter_->add(packet.data.size());
  }
  return packet;
}

std::uint64_t PcapReader::for_each(
    const std::function<void(const RawPacket&)>& fn) {
  std::uint64_t n = 0;
  while (auto packet = next()) {
    fn(*packet);
    ++n;
  }
  return n;
}

}  // namespace quicsand::net
