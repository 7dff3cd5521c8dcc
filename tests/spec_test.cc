// Tests for the specification engine: spec construction, bytecode
// serialization round trips, affine checking, repair, snapshot markers and
// the seed builder.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/spec/builder.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"
#include "src/spec/verify.h"

namespace nyx {
namespace {

TEST(SpecTest, GenericNetworkShape) {
  Spec s = Spec::GenericNetwork();
  EXPECT_EQ(s.edge_type_count(), 1u);
  EXPECT_EQ(s.node_type_count(), 3u);
  ASSERT_TRUE(s.FindNodeType("connection").has_value());
  ASSERT_TRUE(s.FindNodeType("pkt").has_value());
  EXPECT_FALSE(s.FindNodeType("close").has_value());
  EXPECT_EQ(s.NodesWithSemantic(NodeSemantic::kPacket).size(), 1u);
}

TEST(SpecTest, FaultNodeShape) {
  for (const Spec& s : {Spec::GenericNetwork(), Spec::MultiConnection()}) {
    ASSERT_TRUE(s.FindNodeType("fault").has_value());
    const NodeTypeDef& fault = s.node_type(*s.FindNodeType("fault"));
    EXPECT_EQ(fault.semantic, NodeSemantic::kFault);
    // Borrows (not consumes) the connection: a faulted connection can still
    // carry later packet/close ops.
    EXPECT_EQ(fault.borrows.size(), 1u);
    EXPECT_TRUE(fault.consumes.empty());
    EXPECT_TRUE(fault.outputs.empty());
    EXPECT_EQ(fault.data, DataKind::kU32);
  }
}

TEST(SpecTest, MultiConnectionHasClose) {
  Spec s = Spec::MultiConnection();
  ASSERT_TRUE(s.FindNodeType("close").has_value());
  const NodeTypeDef& close = s.node_type(*s.FindNodeType("close"));
  EXPECT_EQ(close.consumes.size(), 1u);
  EXPECT_EQ(close.semantic, NodeSemantic::kClose);
}

Program MakeSeed(const Spec& spec, int packets) {
  Builder b(spec);
  ValueRef con = b.Connection();
  for (int i = 0; i < packets; i++) {
    b.Packet(con, "packet-" + std::to_string(i));
  }
  auto prog = b.Build();
  EXPECT_TRUE(prog.has_value());
  return *prog;
}

TEST(BuilderTest, RecordsCallsInOrder) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 3);
  ASSERT_EQ(p.ops.size(), 4u);
  EXPECT_EQ(spec.node_type(p.ops[0].node_type).semantic, NodeSemantic::kConnection);
  EXPECT_EQ(ToString(p.ops[2].data), "packet-1");
  EXPECT_TRUE(spec::Verify(p, spec).ok());
}

TEST(BuilderTest, UnknownNodeFailsBuild) {
  Spec spec = Spec::GenericNetwork();
  Builder b(spec);
  EXPECT_FALSE(b.Node("no-such-node").has_value());
  EXPECT_FALSE(b.Build().has_value());
  EXPECT_FALSE(b.error().empty());
}

TEST(BuilderTest, ArityMismatchFailsBuild) {
  Spec spec = Spec::GenericNetwork();
  Builder b(spec);
  EXPECT_FALSE(b.Node("pkt", {}, ToBytes("x")).has_value());  // missing conn
  EXPECT_FALSE(b.Build().has_value());
}

TEST(BuilderTest, MultiConnectionSeed) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef c1 = b.Connection();
  ValueRef c2 = b.Connection();
  b.Packet(c1, "to-first");
  b.Packet(c2, "to-second");
  b.Close(c1);
  auto prog = b.Build();
  ASSERT_TRUE(prog.has_value());
  EXPECT_TRUE(spec::Verify(*prog, spec).ok());
  EXPECT_EQ(prog->ops.size(), 5u);
}

TEST(ProgramTest, SerializeParseRoundTrip) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 5);
  Bytes wire = p.Serialize();
  auto parsed = Program::Parse(wire, spec);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->ops.size(), p.ops.size());
  for (size_t i = 0; i < p.ops.size(); i++) {
    EXPECT_EQ(parsed->ops[i].node_type, p.ops[i].node_type);
    EXPECT_EQ(parsed->ops[i].args, p.ops[i].args);
    EXPECT_EQ(parsed->ops[i].data, p.ops[i].data);
  }
}

TEST(ProgramTest, SnapshotMarkerSurvivesRoundTrip) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 4);
  p.InsertSnapshotAfterPacket(spec, 1);
  ASSERT_TRUE(p.SnapshotMarkerPos().has_value());
  Bytes wire = p.Serialize();
  auto parsed = Program::Parse(wire, spec);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->SnapshotMarkerPos(), p.SnapshotMarkerPos());
}

TEST(ProgramTest, ParseRejectsMalformed) {
  Spec spec = Spec::GenericNetwork();
  EXPECT_FALSE(Program::Parse({}, spec).has_value());
  EXPECT_FALSE(Program::Parse(ToBytes("garbage input here"), spec).has_value());
  Program p = MakeSeed(spec, 2);
  Bytes wire = p.Serialize();
  // Truncation at every boundary must fail cleanly, never crash.
  for (size_t cut = 0; cut < wire.size(); cut++) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Program::Parse(truncated, spec).has_value()) << "cut=" << cut;
  }
  // Trailing garbage is also rejected.
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_FALSE(Program::Parse(extended, spec).has_value());
}

TEST(ProgramTest, ParseRejectsUnknownNodeType) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 1);
  Bytes wire = p.Serialize();
  wire[7] = 0x77;  // first op's node id
  EXPECT_FALSE(Program::Parse(wire, spec).has_value());
}

TEST(ProgramTest, VerifyCatchesAffineViolations) {
  Spec spec = Spec::MultiConnection();
  const uint8_t pkt = static_cast<uint8_t>(*spec.FindNodeType("pkt"));
  const uint8_t con = static_cast<uint8_t>(*spec.FindNodeType("connection"));
  const uint8_t close = static_cast<uint8_t>(*spec.FindNodeType("close"));

  // Borrow before production.
  Program bad1;
  bad1.ops.push_back(Op{pkt, {0}, ToBytes("x")});
  EXPECT_FALSE(spec::Verify(bad1, spec).ok());

  // Use after consume.
  Program bad2;
  bad2.ops.push_back(Op{con, {}, {}});
  bad2.ops.push_back(Op{close, {0}, {}});
  bad2.ops.push_back(Op{pkt, {0}, ToBytes("x")});
  const spec::Result r2 = spec::Verify(bad2, spec);
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.Summary().find("borrows"), std::string::npos);

  // Double close.
  Program bad3;
  bad3.ops.push_back(Op{con, {}, {}});
  bad3.ops.push_back(Op{close, {0}, {}});
  bad3.ops.push_back(Op{close, {0}, {}});
  EXPECT_FALSE(spec::Verify(bad3, spec).ok());

  // Valid sequence passes.
  Program good;
  good.ops.push_back(Op{con, {}, {}});
  good.ops.push_back(Op{pkt, {0}, ToBytes("x")});
  good.ops.push_back(Op{close, {0}, {}});
  EXPECT_TRUE(spec::Verify(good, spec).ok());
}

TEST(ProgramTest, RepairFixesDanglingRefs) {
  Spec spec = Spec::MultiConnection();
  const uint8_t pkt = static_cast<uint8_t>(*spec.FindNodeType("pkt"));
  const uint8_t con = static_cast<uint8_t>(*spec.FindNodeType("connection"));

  Program p;
  p.ops.push_back(Op{con, {}, {}});
  p.ops.push_back(Op{pkt, {42}, ToBytes("x")});  // dangling ref
  EXPECT_FALSE(spec::Verify(p, spec).ok());
  p.Repair(spec);
  EXPECT_TRUE(spec::Verify(p, spec).ok());
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[1].args[0], 0);  // rewired to the live connection
}

TEST(ProgramTest, RepairDropsOpsWithNoCandidate) {
  Spec spec = Spec::MultiConnection();
  const uint8_t pkt = static_cast<uint8_t>(*spec.FindNodeType("pkt"));
  Program p;
  p.ops.push_back(Op{pkt, {0}, ToBytes("x")});  // no connection exists at all
  p.Repair(spec);
  EXPECT_TRUE(p.ops.empty());

  // A dropped op between kept ones: the survivors close up in order and
  // keep their args and data.
  const uint8_t con = static_cast<uint8_t>(*spec.FindNodeType("connection"));
  const uint8_t close = static_cast<uint8_t>(*spec.FindNodeType("close"));
  Program q;
  q.ops.push_back(Op{con, {}, {}});
  q.ops.push_back(Op{pkt, {0}, ToBytes("a")});
  q.ops.push_back(Op{close, {0}, {}});
  q.ops.push_back(Op{pkt, {0}, ToBytes("dropped")});  // its connection is closed
  q.ops.push_back(Op{con, {}, {}});
  q.ops.push_back(Op{pkt, {1}, ToBytes("b")});
  q.ops.push_back(Op{pkt, {7}, ToBytes("c")});  // dangling: rebound to value 1
  q.Repair(spec);
  ASSERT_TRUE(spec::Verify(q, spec).ok());
  const std::vector<Op> want = {
      Op{con, {}, {}},     Op{pkt, {0}, ToBytes("a")}, Op{close, {0}, {}},
      Op{con, {}, {}},     Op{pkt, {1}, ToBytes("b")}, Op{pkt, {1}, ToBytes("c")},
  };
  ASSERT_EQ(q.ops.size(), want.size());
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(q.ops[i].node_type, want[i].node_type) << "op " << i;
    EXPECT_EQ(q.ops[i].args, want[i].args) << "op " << i;
    EXPECT_EQ(q.ops[i].data, want[i].data) << "op " << i;
  }
}

TEST(ProgramTest, RepairKeepsOnlyFirstSnapshotMarker) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 2);  // connection, packet-0, packet-1
  Op marker;
  marker.node_type = kSnapshotOpcode;
  p.ops.insert(p.ops.begin() + 1, marker);  // after the connection: dropped
  p.ops.insert(p.ops.begin() + 3, marker);  // after packet-0: kept
  p.ops.push_back(marker);                  // a second marker: dropped
  p.Repair(spec);
  EXPECT_TRUE(spec::Verify(p, spec).ok());
  ASSERT_EQ(p.ops.size(), 4u);
  EXPECT_EQ(p.SnapshotMarkerPos(), std::optional<size_t>(2));
  EXPECT_EQ(ToString(p.ops[1].data), "packet-0");
  EXPECT_EQ(ToString(p.ops[3].data), "packet-1");
}

TEST(ProgramTest, RepairMeetsTheWireLimits) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 1);
  const Op small = p.ops[1];
  p.ops[1].data.assign(kMaxOpDataBytes + 5, 'x');
  while (p.ops.size() < kMaxProgramOps + 3) {
    p.ops.push_back(small);
  }
  ASSERT_FALSE(spec::Verify(p, spec).ok());
  p.Repair(spec);
  EXPECT_TRUE(spec::Verify(p, spec).ok());
  // Cut at the op limit, and the payload truncated to the data limit.
  EXPECT_EQ(p.ops.size(), kMaxProgramOps);
  EXPECT_EQ(p.ops[1].data.size(), kMaxOpDataBytes);
  EXPECT_EQ(p.ops.back(), small);
}

TEST(ProgramTest, RepairBindsEachConsumeToItsOwnValue) {
  // A node that consumes two values of one edge type: its operands may not
  // bind to the same value, or the op would consume it twice.
  Spec spec;
  const int e_con = spec.AddEdgeType("conn");
  spec.AddNodeType(NodeTypeDef{"connection", NodeSemantic::kConnection, {e_con}, {}, {},
                               DataKind::kNone});
  spec.AddNodeType(NodeTypeDef{"bridge", NodeSemantic::kCustom, {}, {}, {e_con, e_con},
                               DataKind::kNone});
  Program p;
  p.ops.push_back(Op{0, {}, {}});      // value 0
  p.ops.push_back(Op{1, {0, 9}, {}});  // one live value only: dropped, value 0 lives on
  p.ops.push_back(Op{0, {}, {}});      // value 1
  p.ops.push_back(Op{1, {9, 9}, {}});  // rebound to values 1 and 0
  p.ops.push_back(Op{1, {0, 1}, {}});  // both consumed already: dropped
  p.Repair(spec);
  EXPECT_TRUE(spec::Verify(p, spec).ok()) << spec::Verify(p, spec).Summary();
  const std::vector<Op> want = {Op{0, {}, {}}, Op{0, {}, {}}, Op{1, {1, 0}, {}}};
  EXPECT_EQ(p.ops, want);
}

TEST(ProgramTest, PacketIndicesAndSnapshotInsertion) {
  Spec spec = Spec::GenericNetwork();
  Program p = MakeSeed(spec, 3);
  std::vector<size_t> packets;
  p.PacketOpIndices(spec, packets);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(p.PacketCount(spec), 3u);
  EXPECT_EQ(packets[0], 1u);

  p.InsertSnapshotAfterPacket(spec, 0);
  EXPECT_EQ(*p.SnapshotMarkerPos(), 2u);
  // Re-insertion moves the marker (never duplicates it).
  p.InsertSnapshotAfterPacket(spec, 2);
  size_t markers = 0;
  for (const Op& op : p.ops) {
    markers += op.is_snapshot() ? 1 : 0;
  }
  EXPECT_EQ(markers, 1u);
  EXPECT_EQ(*p.SnapshotMarkerPos(), p.ops.size() - 1);

  // Out-of-range packet index clamps to the last packet.
  p.InsertSnapshotAfterPacket(spec, 99);
  EXPECT_EQ(*p.SnapshotMarkerPos(), p.ops.size() - 1);

  p.StripSnapshotMarkers();
  EXPECT_FALSE(p.SnapshotMarkerPos().has_value());
  EXPECT_EQ(p.ops.size(), 4u);
}

TEST(ProgramTest, TotalDataBytes) {
  Spec spec = Spec::GenericNetwork();
  Builder b(spec);
  ValueRef c = b.Connection();
  b.Packet(c, "1234");
  b.Packet(c, "56");
  Program p = *b.Build();
  EXPECT_EQ(p.TotalDataBytes(), 6u);
}

// Property: random valid programs always round trip; random byte blobs never
// crash the parser.
class ProgramPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgramPropertyTest, RandomProgramRoundTrip) {
  Rng rng(GetParam());
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  std::vector<ValueRef> conns;
  conns.push_back(b.Connection());
  for (int i = 0; i < 30; i++) {
    const uint64_t action = rng.Below(10);
    if (action < 2) {
      conns.push_back(b.Connection());
    } else {
      Bytes data;
      const uint64_t len = rng.Below(64);
      for (uint64_t j = 0; j < len; j++) {
        data.push_back(rng.NextByte());
      }
      b.Packet(rng.Choice(conns), std::move(data));
    }
  }
  auto prog = b.Build();
  ASSERT_TRUE(prog.has_value());
  Bytes wire = prog->Serialize();
  auto parsed = Program::Parse(wire, spec);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Serialize(), wire);
  EXPECT_TRUE(spec::Verify(*parsed, spec).ok());
}

TEST_P(ProgramPropertyTest, FuzzedWireNeverCrashes) {
  Rng rng(GetParam() ^ 0xabcdef);
  Spec spec = Spec::GenericNetwork();
  for (int i = 0; i < 200; i++) {
    Bytes junk;
    const uint64_t len = rng.Below(256);
    for (uint64_t j = 0; j < len; j++) {
      junk.push_back(rng.NextByte());
    }
    auto parsed = Program::Parse(junk, spec);  // must not crash or UB
    if (parsed.has_value()) {
      EXPECT_TRUE(spec::Verify(*parsed, spec).ok());
      EXPECT_EQ(parsed->Serialize(), junk);
    }
  }
}

TEST_P(ProgramPropertyTest, RepairAlwaysYieldsValid) {
  Rng rng(GetParam() ^ 0x1234);
  Spec spec = Spec::MultiConnection();
  for (int trial = 0; trial < 50; trial++) {
    Program p;
    const uint64_t nops = rng.Range(1, 20);
    for (uint64_t i = 0; i < nops; i++) {
      Op op;
      op.node_type = rng.Chance(1, 10)
                         ? kSnapshotOpcode
                         : static_cast<uint8_t>(rng.Below(spec.node_type_count()));
      if (!op.is_snapshot()) {
        const NodeTypeDef& node = spec.node_type(op.node_type);
        for (size_t a = 0; a < node.borrows.size() + node.consumes.size(); a++) {
          op.args.push_back(static_cast<uint16_t>(rng.Below(30)));
        }
        if (node.data == DataKind::kBytes) {
          op.data.push_back(rng.NextByte());
        }
      }
      p.ops.push_back(std::move(op));
    }
    p.Repair(spec);
    const spec::Result verdict = spec::Verify(p, spec);
    EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  }
}

// Wire-format hardening: start from VALID serialized programs and corrupt
// them — random byte overwrites, single bit flips, truncations, splices.
// Corruptions of valid wire explore much deeper parser states than pure junk
// blobs (magic and version match, so the op loop actually runs). The parser
// must never crash; anything it does accept must be Verify-clean and
// re-serialize to the same bytes.
TEST_P(ProgramPropertyTest, CorruptedWireNeverCrashes) {
  Rng rng(GetParam() ^ 0x70736575);
  for (const Spec& spec : {Spec::GenericNetwork(), Spec::MultiConnection()}) {
    // A pool of valid wires of varying shapes to corrupt.
    std::vector<Bytes> pool;
    for (int packets : {0, 1, 4, 9}) {
      Program p = MakeSeed(spec, packets);
      if (packets > 1) {
        p.InsertSnapshotAfterPacket(spec, 0);
      }
      pool.push_back(p.Serialize());
    }
    for (int i = 0; i < 10000; i++) {
      Bytes wire = pool[rng.Below(pool.size())];
      const uint64_t mode = rng.Below(4);
      if (mode == 0 && !wire.empty()) {
        // Byte overwrite at a random offset (possibly several).
        const uint64_t edits = rng.Range(1, 4);
        for (uint64_t e = 0; e < edits; e++) {
          wire[rng.Below(wire.size())] = rng.NextByte();
        }
      } else if (mode == 1 && !wire.empty()) {
        // Single bit flip — the classic storage-corruption shape.
        wire[rng.Below(wire.size())] ^= static_cast<uint8_t>(1u << rng.Below(8));
      } else if (mode == 2) {
        // Truncate to a random prefix.
        wire.resize(rng.Below(wire.size() + 1));
      } else {
        // Splice the tail of one wire onto the head of another.
        const Bytes& other = pool[rng.Below(pool.size())];
        wire.resize(rng.Below(wire.size() + 1));
        wire.insert(wire.end(), other.begin() + static_cast<long>(rng.Below(other.size())),
                    other.end());
      }
      auto parsed = Program::Parse(wire, spec);  // must not crash or UB
      if (parsed.has_value()) {
        const spec::Result verdict = spec::Verify(*parsed, spec);
        EXPECT_TRUE(verdict.ok()) << verdict.Summary();
        EXPECT_EQ(parsed->Serialize(), wire);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nyx
