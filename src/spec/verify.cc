#include "src/spec/verify.h"

#include <sstream>

#include "src/spec/fault_plan.h"

namespace nyx {
namespace spec {

namespace {

void CheckArgs(const Op& op, const NodeTypeDef& node, ValueTable& table, size_t op_index,
               size_t byte_offset, Result& out) {
  size_t arg = 0;
  auto check_use = [&](int edge, bool consume) {
    const uint16_t id = op.args[arg];
    switch (table.Check(id, edge)) {
      case ValueTable::Use::kOk:
        if (consume) {
          table.Kill(id);
        }
        break;
      case ValueTable::Use::kUnbound:
        out.Add({Rule::kUnboundOperand, op_index, byte_offset,
                 "operand " + std::to_string(arg) + " references value " + std::to_string(id) +
                     " which no earlier op produced"});
        break;
      case ValueTable::Use::kWrongType:
        out.Add({Rule::kTypeMismatch, op_index, byte_offset,
                 "operand " + std::to_string(arg) + " expects edge type " + std::to_string(edge) +
                     " but value " + std::to_string(id) + " has type " +
                     std::to_string(table.values[id].edge_type)});
        break;
      case ValueTable::Use::kDead:
        out.Add({Rule::kUseAfterConsume, op_index, byte_offset,
                 std::string(consume ? "consumes" : "borrows") + " value " + std::to_string(id) +
                     " which an earlier op already consumed"});
        break;
    }
    arg++;
  };
  for (int edge : node.borrows) {
    check_use(edge, false);
  }
  for (int edge : node.consumes) {
    check_use(edge, true);
  }
}

void CheckData(const Op& op, const NodeTypeDef& node, size_t op_index, size_t byte_offset,
               Result& out) {
  switch (node.data) {
    case DataKind::kNone:
      if (!op.data.empty()) {
        out.Add({Rule::kDataOnDatalessNode, op_index, byte_offset,
                 "node carries no payload but op has " + std::to_string(op.data.size()) +
                     " data bytes"});
      }
      return;
    case DataKind::kU8:
    case DataKind::kU16:
    case DataKind::kU32: {
      const size_t want = node.data == DataKind::kU8 ? 1 : node.data == DataKind::kU16 ? 2 : 4;
      if (op.data.size() != want) {
        out.Add({Rule::kScalarDataWidth, op_index, byte_offset,
                 "scalar payload must be exactly " + std::to_string(want) + " bytes, got " +
                     std::to_string(op.data.size())});
      }
      return;
    }
    case DataKind::kBytes:
      if (op.data.size() > kMaxOpDataBytes) {
        out.Add({Rule::kOversizeData, op_index, byte_offset,
                 "payload of " + std::to_string(op.data.size()) +
                     " bytes exceeds the wire limit of " + std::to_string(kMaxOpDataBytes)});
      }
      return;
  }
}

}  // namespace

const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kUnknownOpcode: return "unknown-opcode";
    case Rule::kArityMismatch: return "arity-mismatch";
    case Rule::kUnboundOperand: return "unbound-operand";
    case Rule::kTypeMismatch: return "type-mismatch";
    case Rule::kUseAfterConsume: return "use-after-consume";
    case Rule::kDataOnDatalessNode: return "data-on-dataless-node";
    case Rule::kScalarDataWidth: return "scalar-data-width";
    case Rule::kFaultPlan: return "fault-plan";
    case Rule::kOversizeData: return "oversize-data";
    case Rule::kTooManyOps: return "too-many-ops";
    case Rule::kDuplicateSnapshotMarker: return "duplicate-snapshot-marker";
    case Rule::kSnapshotPlacement: return "snapshot-placement";
    case Rule::kBadHeader: return "bad-header";
    case Rule::kTruncated: return "truncated";
    case Rule::kTrailingBytes: return "trailing-bytes";
  }
  return "unknown-rule";
}

void Result::Add(Diag diag) {
  if (diags.size() < kMaxDiags) {
    diags.push_back(std::move(diag));
  }
}

bool Result::Has(Rule rule) const {
  for (const Diag& d : diags) {
    if (d.rule == rule) {
      return true;
    }
  }
  return false;
}

std::string Result::Summary() const {
  if (diags.empty()) {
    return "ok";
  }
  std::ostringstream os;
  for (size_t i = 0; i < diags.size(); i++) {
    if (i > 0) {
      os << "; ";
    }
    const Diag& d = diags[i];
    os << RuleName(d.rule) << " @ op " << d.op_index << " (byte " << d.byte_offset
       << "): " << d.message;
  }
  return os.str();
}

Result Verify(const Program& program, const Spec& spec) {
  Result out;
  if (program.ops.size() > kMaxProgramOps) {
    out.Add({Rule::kTooManyOps, 0, 0,
             std::to_string(program.ops.size()) + " ops exceed the limit of " +
                 std::to_string(kMaxProgramOps)});
  }

  ValueTable table;
  bool snapshot_seen = false;
  size_t next_offset = kWireHeaderBytes;
  for (size_t i = 0; i < program.ops.size(); i++) {
    const Op& op = program.ops[i];
    const size_t off = next_offset;
    next_offset += op.WireSize();

    if (op.is_snapshot()) {
      if (snapshot_seen) {
        out.Add({Rule::kDuplicateSnapshotMarker, i, off, "second snapshot marker"});
      }
      snapshot_seen = true;
      const bool after_packet =
          i > 0 && !program.ops[i - 1].is_snapshot() &&
          program.ops[i - 1].node_type < spec.node_type_count() &&
          spec.node_type(program.ops[i - 1].node_type).semantic == NodeSemantic::kPacket;
      if (!after_packet) {
        out.Add({Rule::kSnapshotPlacement, i, off,
                 "snapshot marker must directly follow a packet op"});
      }
      continue;
    }

    if (op.node_type >= spec.node_type_count()) {
      out.Add({Rule::kUnknownOpcode, i, off,
               "opcode " + std::to_string(op.node_type) + " not in spec (" +
                   std::to_string(spec.node_type_count()) + " node types)"});
      continue;
    }
    const NodeTypeDef& node = spec.node_type(op.node_type);
    if (op.args.size() != node.borrows.size() + node.consumes.size()) {
      out.Add({Rule::kArityMismatch, i, off,
               "'" + node.name + "' takes " +
                   std::to_string(node.borrows.size() + node.consumes.size()) +
                   " operands, got " + std::to_string(op.args.size())});
    } else {
      CheckArgs(op, node, table, i, off, out);
    }
    CheckData(op, node, i, off, out);
    // Fault plans get a semantic check on top of the width check: the kind
    // must exist and the burst count must be bounded, or NetEmu's replay
    // would have to guess (well-formedness is part of determinism here).
    if (node.semantic == NodeSemantic::kFault && op.data.size() == 4 &&
        !FaultPlan::Decode(op.data).has_value()) {
      out.Add({Rule::kFaultPlan, i, off,
               "fault plan kind " + std::to_string(op.data[0]) + " / burst " +
                   std::to_string(op.data[1]) + " out of range (kinds < " +
                   std::to_string(kFaultKindCount) + ", burst 1.." +
                   std::to_string(kMaxFaultBurst) + ")"});
    }
    // Produce outputs even after a diagnosed op so later value ids line up
    // with what the builder would have assigned.
    table.Produce(node);
  }
  return out;
}

}  // namespace spec
}  // namespace nyx
