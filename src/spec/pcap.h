// PCAP seed import (paper sections 4.4 and 5.4).
//
// "Dumping network traffic is easy. As such, loading seed inputs adds
// tremendous value to fuzzing campaigns." We implement the classic libpcap
// file format (reader and writer, Ethernet/IPv4/TCP+UDP), per-direction TCP
// stream reassembly, and the AFLNET-style packet-boundary dissectors used to
// fragment a byte stream into logical protocol packets — "one of the more
// common packet boundary dissectors uses the CRLF newline sequence".
//
// ProgramFromPcap() glues it together: capture -> client->server payloads ->
// splitter -> Builder -> bytecode seed.

#ifndef SRC_SPEC_PCAP_H_
#define SRC_SPEC_PCAP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {

struct PcapPacket {
  uint32_t ts_sec = 0;
  uint32_t ts_usec = 0;
  Bytes frame;  // link-layer frame (Ethernet)
};

class PcapFile {
 public:
  static std::optional<PcapFile> Parse(const Bytes& raw);
  static Bytes Write(const std::vector<PcapPacket>& packets);

  const std::vector<PcapPacket>& packets() const { return packets_; }

 private:
  std::vector<PcapPacket> packets_;
};

// Decoded transport payload of one frame.
struct Flow {
  bool is_tcp = false;
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;  // TCP only
  Bytes payload;
};

// Parses Ethernet/IPv4/{TCP,UDP}; nullopt for anything else or malformed.
std::optional<Flow> DecodeFrame(const Bytes& frame);

// Builds a well-formed Ethernet/IPv4 frame (for tests and synthetic seeds).
Bytes BuildTcpFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                    uint32_t seq, const Bytes& payload);
Bytes BuildUdpFrame(uint32_t src_ip, uint32_t dst_ip, uint16_t src_port, uint16_t dst_port,
                    const Bytes& payload);

// Reassembles one direction of a TCP conversation by sequence number,
// tolerating duplicates and out-of-order segments.
class StreamReassembler {
 public:
  void AddSegment(uint32_t seq, const Bytes& payload);
  Bytes Assemble() const;

 private:
  std::vector<std::pair<uint32_t, Bytes>> segments_;
};

// AFLNET-style protocol dissectors for fragmenting a stream into logical
// packets.
enum class SplitStrategy {
  kCrlf,             // line-based protocols: FTP, SMTP, SIP, RTSP, HTTP
  kLengthPrefixBe16, // 2-byte big-endian length header (e.g. DICOM-ish, TLS-ish)
  kLengthPrefixBe32, // 4-byte big-endian length header
  kSegment,          // one logical packet per TCP segment / UDP datagram
};

// The strategy a --split name selects: crlf, len16, len32 or segment.
// Nullopt for any other name.
std::optional<SplitStrategy> ParseSplitStrategy(const std::string& name);

std::vector<Bytes> SplitStream(const Bytes& stream, SplitStrategy strategy);

// End-to-end conversion: extracts client->server traffic for `server_port`,
// fragments it, and emits a bytecode seed over `spec` (one connection, one
// pkt per fragment). UDP datagrams keep their natural boundaries regardless
// of strategy.
std::optional<Program> ProgramFromPcap(const Spec& spec, const Bytes& pcap_bytes,
                                       uint16_t server_port, SplitStrategy strategy);

}  // namespace nyx

#endif  // SRC_SPEC_PCAP_H_
