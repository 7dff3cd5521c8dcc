// Tests for PCAP parsing, frame decoding, TCP reassembly, stream splitters
// and end-to-end seed conversion.

#include <gtest/gtest.h>

#include "src/spec/pcap.h"
#include "src/spec/verify.h"

namespace nyx {
namespace {

constexpr uint32_t kClientIp = 0x0a000001;
constexpr uint32_t kServerIp = 0x0a000002;

PcapPacket Frame(Bytes frame) {
  PcapPacket p;
  p.ts_sec = 1;
  p.frame = std::move(frame);
  return p;
}

TEST(PcapTest, WriteParseRoundTrip) {
  std::vector<PcapPacket> pkts;
  pkts.push_back(Frame(BuildTcpFrame(kClientIp, kServerIp, 40000, 21, 1, ToBytes("USER x\r\n"))));
  pkts.push_back(Frame(BuildUdpFrame(kClientIp, kServerIp, 40001, 53, ToBytes("\x12\x34"))));
  Bytes raw = PcapFile::Write(pkts);
  auto parsed = PcapFile::Parse(raw);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->packets().size(), 2u);
  EXPECT_EQ(parsed->packets()[0].frame, pkts[0].frame);
}

TEST(PcapTest, ParseRejectsGarbage) {
  EXPECT_FALSE(PcapFile::Parse({}).has_value());
  EXPECT_FALSE(PcapFile::Parse(ToBytes("definitely not pcap data....")).has_value());
  // Truncated packet record.
  std::vector<PcapPacket> pkts = {
      Frame(BuildTcpFrame(kClientIp, kServerIp, 1, 2, 0, ToBytes("xx")))};
  Bytes raw = PcapFile::Write(pkts);
  raw.resize(raw.size() - 1);
  EXPECT_FALSE(PcapFile::Parse(raw).has_value());
}

TEST(PcapTest, DecodeTcpFrame) {
  Bytes frame = BuildTcpFrame(kClientIp, kServerIp, 40000, 8080, 1234, ToBytes("GET /"));
  auto flow = DecodeFrame(frame);
  ASSERT_TRUE(flow.has_value());
  EXPECT_TRUE(flow->is_tcp);
  EXPECT_EQ(flow->src_ip, kClientIp);
  EXPECT_EQ(flow->dst_ip, kServerIp);
  EXPECT_EQ(flow->src_port, 40000);
  EXPECT_EQ(flow->dst_port, 8080);
  EXPECT_EQ(flow->seq, 1234u);
  EXPECT_EQ(ToString(flow->payload), "GET /");
}

TEST(PcapTest, DecodeUdpFrame) {
  Bytes frame = BuildUdpFrame(kClientIp, kServerIp, 5000, 53, ToBytes("q"));
  auto flow = DecodeFrame(frame);
  ASSERT_TRUE(flow.has_value());
  EXPECT_FALSE(flow->is_tcp);
  EXPECT_EQ(flow->dst_port, 53);
  EXPECT_EQ(ToString(flow->payload), "q");
}

TEST(PcapTest, DecodeRejectsShortAndNonIpv4) {
  EXPECT_FALSE(DecodeFrame({}).has_value());
  EXPECT_FALSE(DecodeFrame(Bytes(10, 0)).has_value());
  Bytes arp(64, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;  // ARP ethertype
  EXPECT_FALSE(DecodeFrame(arp).has_value());
  // IPv6 version nibble.
  Bytes v6 = BuildTcpFrame(kClientIp, kServerIp, 1, 2, 0, ToBytes("x"));
  v6[14] = 0x65;
  EXPECT_FALSE(DecodeFrame(v6).has_value());
}

TEST(ReassemblerTest, InOrder) {
  StreamReassembler r;
  r.AddSegment(100, ToBytes("AB"));
  r.AddSegment(102, ToBytes("CD"));
  EXPECT_EQ(ToString(r.Assemble()), "ABCD");
}

TEST(ReassemblerTest, OutOfOrderAndDuplicates) {
  StreamReassembler r;
  r.AddSegment(102, ToBytes("CD"));
  r.AddSegment(100, ToBytes("AB"));
  r.AddSegment(100, ToBytes("AB"));  // retransmission
  EXPECT_EQ(ToString(r.Assemble()), "ABCD");
}

TEST(ReassemblerTest, OverlappingRetransmission) {
  StreamReassembler r;
  r.AddSegment(100, ToBytes("ABCD"));
  r.AddSegment(102, ToBytes("CDEF"));  // overlaps 2 bytes
  EXPECT_EQ(ToString(r.Assemble()), "ABCDEF");
}

TEST(ReassemblerTest, EmptySegmentsIgnored) {
  StreamReassembler r;
  r.AddSegment(5, {});
  EXPECT_TRUE(r.Assemble().empty());
}

TEST(SplitTest, CrlfSplitter) {
  Bytes stream = ToBytes("USER x\r\nPASS y\r\nQUIT");
  auto parts = SplitStream(stream, SplitStrategy::kCrlf);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(ToString(parts[0]), "USER x\r\n");
  EXPECT_EQ(ToString(parts[1]), "PASS y\r\n");
  EXPECT_EQ(ToString(parts[2]), "QUIT");  // trailing partial line kept
}

TEST(SplitTest, LengthPrefix16) {
  Bytes stream;
  PutBe16(stream, 3);
  Append(stream, "abc");
  PutBe16(stream, 1);
  Append(stream, "z");
  auto parts = SplitStream(stream, SplitStrategy::kLengthPrefixBe16);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].size(), 5u);
  EXPECT_EQ(parts[1].size(), 3u);
}

TEST(SplitTest, LengthPrefixMalformedTailKept) {
  Bytes stream;
  PutBe16(stream, 100);  // claims more than available
  Append(stream, "xy");
  auto parts = SplitStream(stream, SplitStrategy::kLengthPrefixBe16);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 4u);
}

TEST(SplitTest, SegmentKeepsWhole) {
  auto parts = SplitStream(ToBytes("whole"), SplitStrategy::kSegment);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_TRUE(SplitStream({}, SplitStrategy::kSegment).empty());
}

TEST(SplitTest, ParseSplitStrategyNames) {
  EXPECT_EQ(ParseSplitStrategy("crlf"), SplitStrategy::kCrlf);
  EXPECT_EQ(ParseSplitStrategy("len16"), SplitStrategy::kLengthPrefixBe16);
  EXPECT_EQ(ParseSplitStrategy("len32"), SplitStrategy::kLengthPrefixBe32);
  EXPECT_EQ(ParseSplitStrategy("segment"), SplitStrategy::kSegment);
  // A misspelling is rejected, not read as the crlf default.
  EXPECT_EQ(ParseSplitStrategy("len61"), std::nullopt);
  EXPECT_EQ(ParseSplitStrategy(""), std::nullopt);
}

TEST(PcapSeedTest, EndToEndTcpCrlf) {
  // A capture mixing both directions; only client->server:21 counts.
  std::vector<PcapPacket> pkts;
  pkts.push_back(
      Frame(BuildTcpFrame(kServerIp, kClientIp, 21, 40000, 900, ToBytes("220 ready\r\n"))));
  pkts.push_back(
      Frame(BuildTcpFrame(kClientIp, kServerIp, 40000, 21, 1, ToBytes("USER anon\r\nPASS"))));
  pkts.push_back(Frame(BuildTcpFrame(kClientIp, kServerIp, 40000, 21, 16, ToBytes(" x\r\n"))));
  Bytes raw = PcapFile::Write(pkts);

  Spec spec = Spec::GenericNetwork();
  auto prog = ProgramFromPcap(spec, raw, 21, SplitStrategy::kCrlf);
  ASSERT_TRUE(prog.has_value());
  EXPECT_TRUE(spec::Verify(*prog, spec).ok());
  std::vector<size_t> packets;
  prog->PacketOpIndices(spec, packets);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(ToString(prog->ops[packets[0]].data), "USER anon\r\n");
  EXPECT_EQ(ToString(prog->ops[packets[1]].data), "PASS x\r\n");
}

TEST(PcapSeedTest, UdpDatagramsKeepBoundaries) {
  std::vector<PcapPacket> pkts;
  pkts.push_back(Frame(BuildUdpFrame(kClientIp, kServerIp, 5353, 53, ToBytes("query-1"))));
  pkts.push_back(Frame(BuildUdpFrame(kClientIp, kServerIp, 5353, 53, ToBytes("query-2"))));
  Bytes raw = PcapFile::Write(pkts);
  Spec spec = Spec::GenericNetwork();
  auto prog = ProgramFromPcap(spec, raw, 53, SplitStrategy::kCrlf);
  ASSERT_TRUE(prog.has_value());
  std::vector<size_t> packets;
  prog->PacketOpIndices(spec, packets);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(ToString(prog->ops[packets[0]].data), "query-1");
}

TEST(PcapSeedTest, NoMatchingTrafficFails) {
  std::vector<PcapPacket> pkts;
  pkts.push_back(Frame(BuildTcpFrame(kClientIp, kServerIp, 1, 9999, 0, ToBytes("x"))));
  Bytes raw = PcapFile::Write(pkts);
  Spec spec = Spec::GenericNetwork();
  EXPECT_FALSE(ProgramFromPcap(spec, raw, 21, SplitStrategy::kCrlf).has_value());
  EXPECT_FALSE(ProgramFromPcap(spec, ToBytes("junk"), 21, SplitStrategy::kCrlf).has_value());
}

TEST(PcapSeedTest, SegmentStrategyUsesCaptureOrder) {
  std::vector<PcapPacket> pkts;
  pkts.push_back(Frame(BuildTcpFrame(kClientIp, kServerIp, 40000, 3306, 1, ToBytes("AA"))));
  pkts.push_back(Frame(BuildTcpFrame(kClientIp, kServerIp, 40000, 3306, 3, ToBytes("BBB"))));
  Bytes raw = PcapFile::Write(pkts);
  Spec spec = Spec::GenericNetwork();
  auto prog = ProgramFromPcap(spec, raw, 3306, SplitStrategy::kSegment);
  ASSERT_TRUE(prog.has_value());
  std::vector<size_t> packets;
  prog->PacketOpIndices(spec, packets);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_EQ(ToString(prog->ops[packets[0]].data), "AA");
  EXPECT_EQ(ToString(prog->ops[packets[1]].data), "BBB");
}

}  // namespace
}  // namespace nyx
