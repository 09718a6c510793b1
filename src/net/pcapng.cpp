#include "net/pcapng.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace quicsand::net {

namespace {

constexpr std::size_t kMaxBlockSize = 16u << 20;

}  // namespace

PcapngReader::PcapngReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_) {
  if (!file_) throw std::runtime_error("PcapngReader: cannot open " + path);
  read_first_section_header();
}

PcapngReader::PcapngReader(std::istream& in) : in_(&in) {
  read_first_section_header();
}

void PcapngReader::read_first_section_header() {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> body;
  if (!read_block(type, body) || type != kPcapngSectionHeader) {
    throw std::runtime_error("PcapngReader: no section header block");
  }
  parse_section_header(body);
}

std::uint16_t PcapngReader::get_u16(const std::uint8_t* p) const {
  return big_endian_
             ? static_cast<std::uint16_t>((p[0] << 8) | p[1])
             : static_cast<std::uint16_t>((p[1] << 8) | p[0]);
}

std::uint32_t PcapngReader::get_u32(const std::uint8_t* p) const {
  if (big_endian_) {
    return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
           (std::uint32_t{p[2]} << 8) | p[3];
  }
  return (std::uint32_t{p[3]} << 24) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[1]} << 8) | p[0];
}

bool PcapngReader::read_block(std::uint32_t& type,
                              std::vector<std::uint8_t>& body) {
  std::uint8_t header[8];
  in_->read(reinterpret_cast<char*>(header), 8);
  if (in_->gcount() == 0) return false;
  if (in_->gcount() != 8) {
    throw std::runtime_error("PcapngReader: truncated block header");
  }
  // The SHB's own length field must be read with the right endianness,
  // which is only known from its body-order magic; peek it.
  const std::uint32_t raw_type = get_u32(header);
  std::uint32_t total_length = get_u32(header + 4);
  if (raw_type == kPcapngSectionHeader) {
    // Read the magic to fix endianness, then re-interpret the length.
    std::uint8_t magic[4];
    in_->read(reinterpret_cast<char*>(magic), 4);
    if (in_->gcount() != 4) {
      throw std::runtime_error("PcapngReader: truncated section header");
    }
    if (get_u32(magic) == kPcapngByteOrderMagic) {
      // endianness was already right
    } else {
      big_endian_ = !big_endian_;
      if (get_u32(magic) != kPcapngByteOrderMagic) {
        throw std::runtime_error("PcapngReader: bad byte-order magic");
      }
      total_length = get_u32(header + 4);
    }
    if (total_length < 12 + 4 || total_length % 4 != 0 ||
        total_length > kMaxBlockSize) {
      throw std::runtime_error("PcapngReader: bad section header length");
    }
    body.resize(total_length - 12);
    // lint:allow(raw-memcpy): fixed-width magic stamp, no framing here
    std::memcpy(body.data(), magic, 4);
    in_->read(reinterpret_cast<char*>(body.data() + 4),
             static_cast<std::streamsize>(body.size() - 4));
    if (in_->gcount() != static_cast<std::streamsize>(body.size() - 4)) {
      throw std::runtime_error("PcapngReader: truncated section header");
    }
    std::uint8_t trailer[4];
    in_->read(reinterpret_cast<char*>(trailer), 4);
    if (in_->gcount() != 4 || get_u32(trailer) != total_length) {
      throw std::runtime_error("PcapngReader: bad section header trailer");
    }
    type = raw_type;
    return true;
  }

  if (total_length < 12 || total_length % 4 != 0 ||
      total_length > kMaxBlockSize) {
    throw std::runtime_error("PcapngReader: bad block length");
  }
  body.resize(total_length - 12);
  in_->read(reinterpret_cast<char*>(body.data()),
           static_cast<std::streamsize>(body.size()));
  std::uint8_t trailer[4];
  in_->read(reinterpret_cast<char*>(trailer), 4);
  if (in_->gcount() != 4) {
    throw std::runtime_error("PcapngReader: truncated block");
  }
  if (get_u32(trailer) != total_length) {
    throw std::runtime_error("PcapngReader: block length mismatch");
  }
  type = raw_type;
  return true;
}

void PcapngReader::parse_section_header(
    const std::vector<std::uint8_t>& body) {
  if (body.size() < 4 || get_u32(body.data()) != kPcapngByteOrderMagic) {
    throw std::runtime_error("PcapngReader: bad byte-order magic");
  }
  interfaces_.clear();
}

void PcapngReader::parse_interface_description(
    const std::vector<std::uint8_t>& body) {
  if (body.size() < 8) {
    throw std::runtime_error("PcapngReader: short interface block");
  }
  Interface iface;
  iface.linktype = get_u16(body.data());
  // Walk options for if_tsresol (code 9).
  std::size_t offset = 8;
  while (offset + 4 <= body.size()) {
    const std::uint16_t code = get_u16(body.data() + offset);
    const std::uint16_t length = get_u16(body.data() + offset + 2);
    offset += 4;
    if (code == 0) break;  // opt_endofopt
    if (offset + length > body.size()) break;
    if (code == 9 && length >= 1) {
      const std::uint8_t tsresol = body[offset];
      const int exponent = tsresol & 0x7f;
      // Resolutions that overflow uint64 ticks-per-second (2^64, 10^20,
      // ...) cannot describe a real capture; reject instead of shifting
      // by >= 64 or wrapping the multiply.
      if ((tsresol & 0x80) ? exponent > 63 : exponent > 19) {
        throw std::runtime_error("PcapngReader: unsupported if_tsresol");
      }
      if (tsresol & 0x80) {
        iface.ticks_per_second = std::uint64_t{1} << exponent;
      } else {
        iface.ticks_per_second = 1;
        for (int i = 0; i < exponent; ++i) {
          iface.ticks_per_second *= 10;
        }
      }
    }
    offset += (length + 3u) & ~3u;  // options are 4-byte padded
  }
  interfaces_.push_back(iface);
}

std::optional<RawPacket> PcapngReader::parse_enhanced_packet(
    const std::vector<std::uint8_t>& body) const {
  if (body.size() < 20) {
    throw std::runtime_error("PcapngReader: short packet block");
  }
  const std::uint32_t interface_id = get_u32(body.data());
  const std::uint64_t ts =
      (std::uint64_t{get_u32(body.data() + 4)} << 32) |
      get_u32(body.data() + 8);
  const std::uint32_t caplen = get_u32(body.data() + 12);
  if (interface_id >= interfaces_.size()) {
    throw std::runtime_error("PcapngReader: packet for unknown interface");
  }
  // 64-bit sum: `20 + caplen` wraps in uint32 when caplen is near
  // UINT32_MAX and would pass the bound check.
  if (std::uint64_t{20} + caplen > body.size()) {
    throw std::runtime_error("PcapngReader: packet data truncated");
  }
  const auto& iface = interfaces_[interface_id];

  RawPacket packet;
  // Convert interface ticks to microseconds in 128-bit integer math: the
  // old double path hit UB casting out-of-range values (a fabricated ts
  // near 2^64 at 1-tick/s resolution overflows int64 microseconds).
  const auto micros = static_cast<unsigned __int128>(ts) * 1'000'000 /
                      iface.ticks_per_second;
  if (micros > static_cast<std::uint64_t>(
                   std::numeric_limits<util::Timestamp::rep>::max())) {
    throw std::runtime_error("PcapngReader: timestamp out of range");
  }
  packet.timestamp = util::Timestamp{static_cast<std::int64_t>(micros)};
  packet.data.assign(body.begin() + 20, body.begin() + 20 + caplen);
  if (iface.linktype == kLinktypeEthernet) {
    if (packet.data.size() < 14) {
      throw std::runtime_error("PcapngReader: short ethernet frame");
    }
    packet.data.erase(packet.data.begin(), packet.data.begin() + 14);
  } else if (iface.linktype != kLinktypeRaw) {
    if (linktype_drops_counter_ != nullptr) linktype_drops_counter_->add();
    return std::nullopt;  // unsupported link type: skip
  }
  if (packets_counter_ != nullptr) {
    packets_counter_->add();
    bytes_counter_->add(packet.data.size());
  }
  return packet;
}

void PcapngReader::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    packets_counter_ = bytes_counter_ = skipped_blocks_counter_ =
        linktype_drops_counter_ = nullptr;
    read_us_ = nullptr;
    return;
  }
  packets_counter_ = &metrics->counter("pcapng.packets_read",
                                       "packets read from pcapng files");
  bytes_counter_ =
      &metrics->counter("pcapng.bytes_read", "captured payload bytes read");
  skipped_blocks_counter_ = &metrics->counter(
      "pcapng.blocks_skipped", "non-packet blocks (stats, NRB, custom)");
  linktype_drops_counter_ = &metrics->counter(
      "pcapng.linktype_drops", "packets on unsupported link types");
  read_us_ = &metrics->latency(
      "pcapng.read_us",
      "wall time to read one packet, skipped blocks included");
}

std::optional<RawPacket> PcapngReader::next() {
  const obs::ScopedLatency latency(read_us_);
  std::uint32_t type = 0;
  std::vector<std::uint8_t> body;
  while (read_block(type, body)) {
    switch (type) {
      case kPcapngSectionHeader:
        parse_section_header(body);
        break;
      case kPcapngInterfaceDescription:
        parse_interface_description(body);
        break;
      case kPcapngEnhancedPacket: {
        auto packet = parse_enhanced_packet(body);
        if (packet) return packet;
        break;
      }
      default:
        // statistics, name resolution, custom blocks: skip
        if (skipped_blocks_counter_ != nullptr) skipped_blocks_counter_->add();
        break;
    }
  }
  return std::nullopt;
}

std::uint64_t PcapngReader::for_each(
    const std::function<void(const RawPacket&)>& fn) {
  std::uint64_t count = 0;
  while (auto packet = next()) {
    fn(*packet);
    ++count;
  }
  return count;
}

}  // namespace quicsand::net
