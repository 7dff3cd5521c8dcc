#include "src/spec/pcap.h"

#include <algorithm>

#include "src/spec/builder.h"

namespace nyx {

namespace {
constexpr uint32_t kPcapMagic = 0xa1b2c3d4;
constexpr uint16_t kVersionMajor = 2;
constexpr uint16_t kVersionMinor = 4;
constexpr uint32_t kLinkTypeEthernet = 1;
constexpr size_t kEthHeader = 14;
constexpr uint16_t kEtherTypeIpv4 = 0x0800;
constexpr uint8_t kProtoTcp = 6;
constexpr uint8_t kProtoUdp = 17;
constexpr size_t kMaxPackets = 65536;
}  // namespace

std::optional<PcapFile> PcapFile::Parse(const Bytes& raw) {
  if (raw.size() < 24 || ReadLe32(raw, 0) != kPcapMagic) {
    return std::nullopt;
  }
  PcapFile file;
  size_t off = 24;
  while (off + 16 <= raw.size()) {
    PcapPacket pkt;
    pkt.ts_sec = ReadLe32(raw, off);
    pkt.ts_usec = ReadLe32(raw, off + 4);
    const uint32_t incl_len = ReadLe32(raw, off + 8);
    off += 16;
    if (incl_len > 1 << 20 || off + incl_len > raw.size() ||
        file.packets_.size() >= kMaxPackets) {
      return std::nullopt;
    }
    pkt.frame.assign(raw.begin() + static_cast<long>(off),
                     raw.begin() + static_cast<long>(off + incl_len));
    off += incl_len;
    file.packets_.push_back(std::move(pkt));
  }
  if (off != raw.size()) {
    return std::nullopt;
  }
  return file;
}

Bytes PcapFile::Write(const std::vector<PcapPacket>& packets) {
  Bytes out;
  PutLe32(out, kPcapMagic);
  PutLe16(out, kVersionMajor);
  PutLe16(out, kVersionMinor);
  PutLe32(out, 0);  // thiszone
  PutLe32(out, 0);  // sigfigs
  PutLe32(out, 65535);
  PutLe32(out, kLinkTypeEthernet);
  for (const PcapPacket& pkt : packets) {
    PutLe32(out, pkt.ts_sec);
    PutLe32(out, pkt.ts_usec);
    PutLe32(out, static_cast<uint32_t>(pkt.frame.size()));
    PutLe32(out, static_cast<uint32_t>(pkt.frame.size()));
    Append(out, pkt.frame);
  }
  return out;
}

std::optional<Flow> DecodeFrame(const Bytes& frame) {
  if (frame.size() < kEthHeader + 20) {
    return std::nullopt;
  }
  if (ReadBe16(frame, 12) != kEtherTypeIpv4) {
    return std::nullopt;
  }
  const size_t ip_off = kEthHeader;
  const uint8_t vihl = frame[ip_off];
  if ((vihl >> 4) != 4) {
    return std::nullopt;
  }
  const size_t ihl = static_cast<size_t>(vihl & 0x0f) * 4;
  if (ihl < 20 || ip_off + ihl > frame.size()) {
    return std::nullopt;
  }
  const uint16_t total_len = ReadBe16(frame, ip_off + 2);
  if (total_len < ihl || ip_off + total_len > frame.size()) {
    return std::nullopt;
  }
  const uint8_t proto = frame[ip_off + 9];
  Flow flow;
  flow.src_ip = ReadBe32(frame, ip_off + 12);
  flow.dst_ip = ReadBe32(frame, ip_off + 16);
  const size_t l4_off = ip_off + ihl;
  if (proto == kProtoTcp) {
    if (l4_off + 20 > frame.size()) {
      return std::nullopt;
    }
    flow.is_tcp = true;
    flow.src_port = ReadBe16(frame, l4_off);
    flow.dst_port = ReadBe16(frame, l4_off + 2);
    flow.seq = ReadBe32(frame, l4_off + 4);
    const size_t data_off = static_cast<size_t>(frame[l4_off + 12] >> 4) * 4;
    if (data_off < 20 || l4_off + data_off > ip_off + total_len) {
      return std::nullopt;
    }
    flow.payload.assign(frame.begin() + static_cast<long>(l4_off + data_off),
                        frame.begin() + static_cast<long>(ip_off + total_len));
    return flow;
  }
  if (proto == kProtoUdp) {
    if (l4_off + 8 > frame.size()) {
      return std::nullopt;
    }
    flow.is_tcp = false;
    flow.src_port = ReadBe16(frame, l4_off);
    flow.dst_port = ReadBe16(frame, l4_off + 2);
    const uint16_t udp_len = ReadBe16(frame, l4_off + 4);
    if (udp_len < 8 || l4_off + udp_len > ip_off + total_len) {
      return std::nullopt;
    }
    flow.payload.assign(frame.begin() + static_cast<long>(l4_off + 8),
                        frame.begin() + static_cast<long>(l4_off + udp_len));
    return flow;
  }
  return std::nullopt;
}

namespace {

Bytes BuildIpv4Frame(uint32_t src_ip, uint32_t dst_ip, uint8_t proto, const Bytes& l4) {
  Bytes frame;
  // Ethernet: zero MACs, IPv4 ethertype.
  frame.assign(12, 0);
  PutBe16(frame, kEtherTypeIpv4);
  // IPv4 header (no options, zero checksum — parsers here don't verify it).
  frame.push_back(0x45);
  frame.push_back(0);
  PutBe16(frame, static_cast<uint16_t>(20 + l4.size()));
  PutBe16(frame, 0);      // id
  PutBe16(frame, 0x4000); // DF
  frame.push_back(64);    // ttl
  frame.push_back(proto);
  PutBe16(frame, 0);  // checksum
  PutBe32(frame, src_ip);
  PutBe32(frame, dst_ip);
  Append(frame, l4);
  return frame;
}

}  // namespace

Bytes BuildTcpFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                    uint32_t seq, const Bytes& payload) {
  Bytes tcp;
  PutBe16(tcp, src_port);
  PutBe16(tcp, dst_port);
  PutBe32(tcp, seq);
  PutBe32(tcp, 0);        // ack
  tcp.push_back(0x50);    // data offset = 5 words
  tcp.push_back(0x18);    // PSH|ACK
  PutBe16(tcp, 65535);    // window
  PutBe16(tcp, 0);        // checksum
  PutBe16(tcp, 0);        // urgent
  Append(tcp, payload);
  return BuildIpv4Frame(src_ip, dst_ip, kProtoTcp, tcp);
}

Bytes BuildUdpFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                    const Bytes& payload) {
  Bytes udp;
  PutBe16(udp, src_port);
  PutBe16(udp, dst_port);
  PutBe16(udp, static_cast<uint16_t>(8 + payload.size()));
  PutBe16(udp, 0);  // checksum
  Append(udp, payload);
  return BuildIpv4Frame(src_ip, dst_ip, kProtoUdp, udp);
}

void StreamReassembler::AddSegment(uint32_t seq, const Bytes& payload) {
  if (payload.empty()) {
    return;
  }
  // Drop exact duplicates (retransmissions).
  for (const auto& [s, p] : segments_) {
    if (s == seq && p == payload) {
      return;
    }
  }
  segments_.emplace_back(seq, payload);
}

Bytes StreamReassembler::Assemble() const {
  std::vector<std::pair<uint32_t, Bytes>> sorted = segments_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Bytes out;
  uint32_t next_seq = sorted.empty() ? 0 : sorted.front().first;
  for (const auto& [seq, payload] : sorted) {
    if (seq == next_seq) {
      Append(out, payload);
      next_seq = seq + static_cast<uint32_t>(payload.size());
    } else if (seq < next_seq) {
      // Partial overlap (retransmission with extra data).
      const uint32_t overlap = next_seq - seq;
      if (overlap < payload.size()) {
        out.insert(out.end(), payload.begin() + overlap, payload.end());
        next_seq = seq + static_cast<uint32_t>(payload.size());
      }
    } else {
      // Gap: concatenate anyway (seeds need not be perfect).
      Append(out, payload);
      next_seq = seq + static_cast<uint32_t>(payload.size());
    }
  }
  return out;
}

std::optional<SplitStrategy> ParseSplitStrategy(const std::string& name) {
  if (name == "crlf") return SplitStrategy::kCrlf;
  if (name == "len16") return SplitStrategy::kLengthPrefixBe16;
  if (name == "len32") return SplitStrategy::kLengthPrefixBe32;
  if (name == "segment") return SplitStrategy::kSegment;
  return std::nullopt;
}

std::vector<Bytes> SplitStream(const Bytes& stream, SplitStrategy strategy) {
  std::vector<Bytes> out;
  switch (strategy) {
    case SplitStrategy::kCrlf: {
      size_t start = 0;
      for (size_t i = 0; i + 1 < stream.size(); i++) {
        if (stream[i] == '\r' && stream[i + 1] == '\n') {
          out.emplace_back(stream.begin() + static_cast<long>(start),
                           stream.begin() + static_cast<long>(i + 2));
          start = i + 2;
          i++;
        }
      }
      if (start < stream.size()) {
        out.emplace_back(stream.begin() + static_cast<long>(start), stream.end());
      }
      break;
    }
    case SplitStrategy::kLengthPrefixBe16: {
      size_t off = 0;
      while (off + 2 <= stream.size()) {
        const size_t len = ReadBe16(stream, off);
        const size_t end = off + 2 + len;
        if (len == 0 || end > stream.size()) {
          break;
        }
        out.emplace_back(stream.begin() + static_cast<long>(off),
                         stream.begin() + static_cast<long>(end));
        off = end;
      }
      if (off < stream.size()) {
        out.emplace_back(stream.begin() + static_cast<long>(off), stream.end());
      }
      break;
    }
    case SplitStrategy::kLengthPrefixBe32: {
      size_t off = 0;
      while (off + 4 <= stream.size()) {
        const size_t len = ReadBe32(stream, off);
        const size_t end = off + 4 + len;
        if (len == 0 || len > stream.size() || end > stream.size()) {
          break;
        }
        out.emplace_back(stream.begin() + static_cast<long>(off),
                         stream.begin() + static_cast<long>(end));
        off = end;
      }
      if (off < stream.size()) {
        out.emplace_back(stream.begin() + static_cast<long>(off), stream.end());
      }
      break;
    }
    case SplitStrategy::kSegment:
      if (!stream.empty()) {
        out.push_back(stream);
      }
      break;
  }
  return out;
}

std::optional<Program> ProgramFromPcap(const Spec& spec, const Bytes& pcap_bytes,
                                       uint16_t server_port, SplitStrategy strategy) {
  auto file = PcapFile::Parse(pcap_bytes);
  if (!file.has_value()) {
    return std::nullopt;
  }

  StreamReassembler tcp_stream;
  std::vector<Bytes> tcp_segments;  // in capture order, for kSegment
  std::vector<Bytes> datagrams;
  bool saw_tcp = false;
  for (const PcapPacket& pkt : file->packets()) {
    auto flow = DecodeFrame(pkt.frame);
    if (!flow.has_value() || flow->dst_port != server_port || flow->payload.empty()) {
      continue;
    }
    if (flow->is_tcp) {
      saw_tcp = true;
      tcp_stream.AddSegment(flow->seq, flow->payload);
      tcp_segments.push_back(flow->payload);
    } else {
      datagrams.push_back(flow->payload);
    }
  }

  std::vector<Bytes> packets;
  if (saw_tcp) {
    if (strategy == SplitStrategy::kSegment) {
      packets = std::move(tcp_segments);
    } else {
      packets = SplitStream(tcp_stream.Assemble(), strategy);
    }
  }
  for (Bytes& d : datagrams) {
    packets.push_back(std::move(d));
  }
  if (packets.empty()) {
    return std::nullopt;
  }

  Builder builder(spec);
  ValueRef conn = builder.Connection();
  for (Bytes& p : packets) {
    // A reassembled stream chunk can exceed the per-op wire limit even
    // though every captured frame was within it; split rather than emit a
    // program the verifier (and a serialize round trip) would reject.
    for (size_t off = 0; off < p.size(); off += kMaxOpDataBytes) {
      const size_t n = std::min(kMaxOpDataBytes, p.size() - off);
      builder.Packet(conn, Bytes(p.begin() + static_cast<long>(off),
                                 p.begin() + static_cast<long>(off + n)));
    }
  }
  return builder.Build();
}

}  // namespace nyx
