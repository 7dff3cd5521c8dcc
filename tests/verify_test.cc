// Static verifier coverage: every rule id fires on a crafted invalid
// program (and only that rule, where the classes are independent), byte
// offsets point at the offending op, Program::Parse reports the wire rules
// and the structural ones at the offsets it decoded, and the mutator's
// output always verifies clean — the debug-build post-condition in
// Mutator::Mutate holds over a long random campaign, and at the op limit.

#include "src/spec/verify.h"

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/mutator.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {
namespace {

Op MakeOp(uint8_t node_type, std::vector<uint16_t> args = {}, Bytes data = {}) {
  Op op;
  op.node_type = node_type;
  op.args = std::move(args);
  op.data = std::move(data);
  return op;
}

// MultiConnection: 0 = connection (produces conn), 1 = pkt (borrows conn,
// bytes payload), 2 = close (consumes conn).
Program ValidProgram() {
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(1, {0}, {'h', 'i'}));
  p.ops.push_back(MakeOp(2, {0}));
  return p;
}

TEST(VerifyTest, ValidProgramIsClean) {
  const Spec spec = Spec::MultiConnection();
  const Program p = ValidProgram();
  EXPECT_TRUE(spec::Verify(p, spec).ok());
  spec::Result verdict;
  EXPECT_TRUE(Program::Parse(p.Serialize(), spec, &verdict).has_value());
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

TEST(VerifyTest, DoubleConsumeIsUseAfterConsume) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(2, {0}));
  p.ops.push_back(MakeOp(2, {0}));  // conn 0 is already dead
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kUseAfterConsume);
  EXPECT_EQ(r.diags[0].op_index, 2u);
  // Serialize() layout: header(7) + connection(6) + close(8) = 21.
  EXPECT_EQ(r.diags[0].byte_offset, 21u);
}

TEST(VerifyTest, BorrowAfterConsumeIsUseAfterConsume) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(2, {0}));
  p.ops.push_back(MakeOp(1, {0}, {'x'}));  // borrow of a consumed value
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kUseAfterConsume);
}

TEST(VerifyTest, OutOfBoundsOperandIsUnbound) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(1, {5}, {'x'}));  // only value 0 exists
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kUnboundOperand);
  EXPECT_EQ(r.diags[0].op_index, 1u);
}

TEST(VerifyTest, WrongEdgeTypeIsTypeMismatch) {
  Spec spec;
  const int e_con = spec.AddEdgeType("conn");
  const int e_file = spec.AddEdgeType("file");
  spec.AddNodeType(NodeTypeDef{"open", NodeSemantic::kCustom, {e_file}, {}, {},
                               DataKind::kNone});
  spec.AddNodeType(NodeTypeDef{"pkt", NodeSemantic::kPacket, {}, {e_con}, {},
                               DataKind::kBytes});
  Program p;
  p.ops.push_back(MakeOp(0));              // produces a file value
  p.ops.push_back(MakeOp(1, {0}, {'x'}));  // pkt wants a conn
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kTypeMismatch);
}

TEST(VerifyTest, WrongOperandCountIsArityMismatch) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(1, {}, {'x'}));  // pkt takes one operand
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kArityMismatch);
}

TEST(VerifyTest, UnknownOpcodeIsRejected) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(42));
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kUnknownOpcode);
}

TEST(VerifyTest, PayloadOnDatalessNodeIsRejected) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0, {}, {'x'}));  // connection carries no payload
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kDataOnDatalessNode);
}

TEST(VerifyTest, ScalarPayloadWidthIsChecked) {
  Spec spec;
  spec.AddNodeType(NodeTypeDef{"setopt", NodeSemantic::kCustom, {}, {}, {},
                               DataKind::kU16});
  Program p;
  p.ops.push_back(MakeOp(0, {}, {1, 2, 3}));  // kU16 wants exactly 2 bytes
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kScalarDataWidth);
}

TEST(VerifyTest, OversizePayloadIsRejected) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(1, {0}, Bytes(kMaxOpDataBytes + 1, 0xaa)));
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kOversizeData);
}

TEST(VerifyTest, TooManyOpsIsRejected) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  for (size_t i = 0; i < kMaxProgramOps + 1; i++) {
    p.ops.push_back(MakeOp(0));
  }
  const spec::Result r = spec::Verify(p, spec);
  EXPECT_TRUE(r.Has(spec::Rule::kTooManyOps));
}

TEST(VerifyTest, SecondSnapshotMarkerIsDuplicate) {
  const Spec spec = Spec::MultiConnection();
  Program p = ValidProgram();
  p.InsertSnapshotAfterPacket(spec, 0);
  EXPECT_TRUE(spec::Verify(p, spec).ok());
  p.ops.insert(p.ops.begin() + 3, MakeOp(kSnapshotOpcode));
  const spec::Result r = spec::Verify(p, spec);
  EXPECT_TRUE(r.Has(spec::Rule::kDuplicateSnapshotMarker));
}

TEST(VerifyTest, MarkerNotAfterPacketIsPlacementError) {
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(kSnapshotOpcode));  // after connection, not a packet
  const spec::Result r = spec::Verify(p, spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kSnapshotPlacement);
}

// Parse's verdict for `wire`; Parse must reject it.
spec::Result Rejection(const Bytes& wire, const Spec& spec) {
  spec::Result verdict;
  EXPECT_FALSE(Program::Parse(wire, spec, &verdict).has_value());
  return verdict;
}

TEST(ParseVerdictTest, ShortBufferAndBadMagicAndBadVersion) {
  const Spec spec = Spec::MultiConnection();
  EXPECT_TRUE(Rejection(Bytes{1, 2, 3}, spec).Has(spec::Rule::kBadHeader));

  Bytes wire = ValidProgram().Serialize();
  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xff;
  EXPECT_TRUE(Rejection(bad_magic, spec).Has(spec::Rule::kBadHeader));

  Bytes bad_version = wire;
  bad_version[4] = 9;
  const spec::Result r = Rejection(bad_version, spec);
  ASSERT_TRUE(r.Has(spec::Rule::kBadHeader));
  EXPECT_EQ(r.diags[0].byte_offset, 4u);
}

TEST(ParseVerdictTest, TruncatedEncodingIsRejectedWithOffset) {
  const Spec spec = Spec::MultiConnection();
  const Program p = ValidProgram();
  Bytes wire = p.Serialize();
  wire.resize(wire.size() - 3);  // chop into the close op's encoding
  const spec::Result r = Rejection(wire, spec);
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kTruncated);
  // The close op starts at header(7) + connection(6) + pkt(10) = 23.
  EXPECT_EQ(r.diags[0].byte_offset, 23u);
  EXPECT_EQ(r.diags[0].op_index, 2u);
}

TEST(ParseVerdictTest, TrailingBytesAreRejected) {
  const Spec spec = Spec::MultiConnection();
  Bytes wire = ValidProgram().Serialize();
  const size_t real_end = wire.size();
  wire.push_back(0);
  wire.push_back(0);
  const spec::Result r = Rejection(wire, spec);
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kTrailingBytes);
  EXPECT_EQ(r.diags[0].byte_offset, real_end);
}

TEST(ParseVerdictTest, SemanticDiagsAgreeWithStructuralPass) {
  // Parse must anchor semantic rules at the byte offsets it decoded the ops
  // from, which are the offsets the structural pass computes.
  const Spec spec = Spec::MultiConnection();
  Program p;
  p.ops.push_back(MakeOp(0));
  p.ops.push_back(MakeOp(2, {0}));
  p.ops.push_back(MakeOp(2, {0}));
  const spec::Result structural = spec::Verify(p, spec);
  const spec::Result wire = Rejection(p.Serialize(), spec);
  ASSERT_EQ(structural.diags.size(), 1u);
  ASSERT_EQ(wire.diags.size(), 1u);
  EXPECT_EQ(wire.diags[0].rule, structural.diags[0].rule);
  EXPECT_EQ(wire.diags[0].byte_offset, structural.diags[0].byte_offset);
}

TEST(ParseVerdictTest, ParseRejectsWhatVerifyRejects) {
  // A scalar payload of the wrong width decodes fine; Parse still rejects
  // it, naming the rule.
  Spec spec;
  spec.AddNodeType(NodeTypeDef{"setopt", NodeSemantic::kCustom, {}, {}, {},
                               DataKind::kU16});
  Program p;
  p.ops.push_back(MakeOp(0, {}, {1, 2, 3}));
  const spec::Result r = Rejection(p.Serialize(), spec);
  ASSERT_EQ(r.diags.size(), 1u);
  EXPECT_EQ(r.diags[0].rule, spec::Rule::kScalarDataWidth);
}

TEST(VerifyTest, CorpusRejectsIllFormedPrograms) {
  const Spec spec = Spec::MultiConnection();
  Corpus corpus(&spec);
  ResetContractCounters();

  Program bad;
  bad.ops.push_back(MakeOp(1, {7}, {'x'}));
  EXPECT_FALSE(corpus.Add(bad, /*vtime_ns=*/1, /*packet_count=*/1, /*found_at_vsec=*/0.0));
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(GetContractCounters().soft_failures, 1u);

  EXPECT_TRUE(corpus.Add(ValidProgram(), 1, 1, 0.0));
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(GetContractCounters().soft_failures, 1u);
  ResetContractCounters();
}

TEST(CheckTest, ExpectCountsSoftFailures) {
  ResetContractCounters();
  EXPECT_TRUE(NYX_EXPECT(1 + 1 == 2));
  EXPECT_EQ(GetContractCounters().soft_failures, 0u);
  EXPECT_FALSE(NYX_EXPECT(1 + 1 == 3));
  EXPECT_FALSE(NYX_EXPECT(false));
  EXPECT_EQ(GetContractCounters().soft_failures, 2u);
  EXPECT_EQ(GetContractCounters().hard_failures, 0u);
  ResetContractCounters();
  EXPECT_EQ(GetContractCounters().soft_failures, 0u);
}

// Mutates `start` `iterations` times in a row, with `start` in the donor
// pool, and requires every mutant to verify clean.
void MutateAndVerify(const Spec& spec, const Program& start, int iterations) {
  Mutator mutator(spec, 0x5eed);
  std::vector<Program> pool = {start};
  Program current = start;
  for (int i = 0; i < iterations; i++) {
    std::vector<const Program*> donors;
    donors.reserve(pool.size());
    for (const Program& d : pool) {
      donors.push_back(&d);
    }
    mutator.Mutate(current, donors, /*first_mutable_op=*/0);
    const spec::Result verdict = spec::Verify(current, spec);
    ASSERT_TRUE(verdict.ok()) << "iteration " << i << ": " << verdict.Summary();
    // Grow the donor pool occasionally so splice mutations get variety.
    if (i % 1000 == 999 && pool.size() < 8) {
      pool.push_back(current);
    }
  }
}

TEST(VerifyTest, TenThousandMutationsVerifyClean) {
  const Spec spec = Spec::GenericNetwork();
  Program seed;
  seed.ops.push_back(MakeOp(0));
  seed.ops.push_back(MakeOp(1, {0}, {'G', 'E', 'T', ' ', '/'}));
  seed.ops.push_back(MakeOp(1, {0}, {'\r', '\n'}));
  MutateAndVerify(spec, seed, 10000);

  // A start at the op limit, which is also its own splice donor: a mutation
  // that would grow it must stop at kMaxProgramOps.
  Program full = seed;
  while (full.ops.size() < kMaxProgramOps) {
    full.ops.push_back(MakeOp(1, {0}, {'N', 'O', 'O', 'P'}));
  }
  MutateAndVerify(spec, full, 300);
}

}  // namespace
}  // namespace nyx
