// Static verifier for bytecode programs (the affine type system of paper
// section 3.5, made machine-checked). Verify is the one definition of a
// well-formed program.
//
// Program::Repair() makes any op sequence pass it; this layer PROVES a
// program is well-formed and reports exactly why it is not. It runs at
// every trust boundary where bytecode enters the system — Program::Parse
// (corpus files read from disk), builder output (and so PCAP seed
// conversion), Corpus::Add — and as a debug-build post-condition after
// every mutation, so a buggy mutator or hand-edited seed is rejected loudly
// instead of corrupting the campaign.
//
// Checked rules (each with a stable id, see Rule):
//   - opcode/operand well-formedness: known opcodes, exact arity, operand
//     ids bound to previously produced values of the right edge type;
//   - affine use: a consumed value is dead; borrowing or re-consuming it is
//     an error (kUseAfterConsume) — "every data node consumed at most once";
//   - data payload legality: no payload on DataKind::kNone nodes, exact
//     widths for scalar kinds, wire-format size limits;
//   - snapshot placement: at most one marker, positioned directly after a
//     packet-semantic op (the only position the placement policies emit);
//   - wire boundaries (reported by Program::Parse only): bad header, an op
//     encoding that runs past the buffer, an oversize data length, and
//     trailing bytes, each with its byte offset.

#ifndef SRC_SPEC_VERIFY_H_
#define SRC_SPEC_VERIFY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {
namespace spec {

enum class Rule : uint8_t {
  kUnknownOpcode,           // node_type not in the spec (and not the marker)
  kArityMismatch,           // operand count != borrows + consumes
  kUnboundOperand,          // operand id never produced by an earlier op
  kTypeMismatch,            // operand bound to a value of the wrong edge type
  kUseAfterConsume,         // affine violation: value already consumed
  kDataOnDatalessNode,      // payload bytes on a DataKind::kNone node
  kScalarDataWidth,         // kU8/kU16/kU32 payload with the wrong byte count
  kFaultPlan,               // kFault payload decodes to an ill-formed plan
  kOversizeData,            // payload exceeds the wire-format limit
  kTooManyOps,              // program exceeds kMaxProgramOps
  kDuplicateSnapshotMarker, // more than one snapshot marker
  kSnapshotPlacement,       // marker not directly after a packet-semantic op
  kBadHeader,               // wire: magic/version mismatch
  kTruncated,               // wire: op encoding runs past the end of buffer
  kTrailingBytes,           // wire: bytes left over after the last op
};

const char* RuleName(Rule rule);

struct Diag {
  Rule rule;
  size_t op_index = 0;     // op the diagnostic anchors to (0 for header issues)
  size_t byte_offset = 0;  // offset of that op in the serialized wire form
  std::string message;
};

struct Result {
  // A malformed op can cascade (every later use of its would-be outputs is
  // unbound); the report is capped so a corrupt 4k-op program stays
  // readable.
  static constexpr size_t kMaxDiags = 32;

  std::vector<Diag> diags;

  // Appends `diag` unless the report already holds kMaxDiags.
  void Add(Diag diag);
  bool ok() const { return diags.empty(); }
  bool Has(Rule rule) const;
  // "rule-name @ op N (byte M): message; ..." for logs and check failures.
  std::string Summary() const;
};

// The live-value table of the affine type system: one entry per value the
// ops so far produced, in id order. Verify diagnoses operands against it;
// Program::Repair and Program::LiveValues bind operands with it.
struct ValueTable {
  struct Value {
    int edge_type;
    bool live;
  };
  std::vector<Value> values;

  enum class Use { kOk, kUnbound, kWrongType, kDead };

  Use Check(uint16_t id, int edge_type) const {
    if (id >= values.size()) {
      return Use::kUnbound;
    }
    if (values[id].edge_type != edge_type) {
      return Use::kWrongType;
    }
    return values[id].live ? Use::kOk : Use::kDead;
  }
  bool IsLive(uint16_t id, int edge_type) const { return Check(id, edge_type) == Use::kOk; }

  // Most recently produced live value of the given type, if any.
  std::optional<uint16_t> LatestLive(int edge_type) const {
    for (size_t i = values.size(); i-- > 0;) {
      if (values[i].live && values[i].edge_type == edge_type) {
        return static_cast<uint16_t>(i);
      }
    }
    return std::nullopt;
  }

  void Produce(const NodeTypeDef& node) {
    for (int out : node.outputs) {
      values.push_back({out, true});
    }
  }

  void Kill(uint16_t id) {
    // Callers check the id first, so an out-of-range id is a logic bug.
    NYX_DCHECK_LT(static_cast<size_t>(id), values.size());
    if (id < values.size()) {
      values[id].live = false;
    }
  }
};

// Verifies a structured program. Byte offsets in the diagnostics are the
// offsets the ops have in Program::Serialize() output, which is also where
// Program::Parse decoded them from.
Result Verify(const Program& program, const Spec& spec);

}  // namespace spec
}  // namespace nyx

#endif  // SRC_SPEC_VERIFY_H_
