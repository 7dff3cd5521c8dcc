// Bytecode programs: the fuzzer's input representation.
//
// A Program is a sequence of ops over a Spec. The flat wire format is what
// lives in the corpus on disk; the structured form is what mutators and the
// execution engine work on. spec::Verify (spec/verify.h) defines which
// programs are well-formed: Parse returns only such programs, and Repair
// turns any program into one. The snapshot marker op (kSnapshotOpcode) has
// no arguments; the placement policies put it directly after a packet op,
// the only position the verifier accepts.

#ifndef SRC_SPEC_PROGRAM_H_
#define SRC_SPEC_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/spec/spec.h"

namespace nyx {

namespace spec {
struct Result;
}  // namespace spec

// Wire layout (program.cc): magic(4) version(1) op-count(2), then per op
// the opcode(1) and, unless it is the snapshot marker, argc(1), args(2
// each), data-length(4) and the data. The verifier's byte offsets point
// into this layout.
inline constexpr size_t kWireHeaderBytes = 7;
inline constexpr size_t kMaxProgramOps = 4096;
inline constexpr size_t kMaxOpDataBytes = 1 << 20;

struct Op {
  uint8_t node_type = 0;  // index into the spec, or kSnapshotOpcode
  std::vector<uint16_t> args;  // value ids: borrows first, then consumes
  Bytes data;

  bool is_snapshot() const { return node_type == kSnapshotOpcode; }
  // Bytes this op takes in Serialize() output.
  size_t WireSize() const { return is_snapshot() ? 1 : 1 + 1 + args.size() * 2 + 4 + data.size(); }
  bool operator==(const Op&) const = default;
};

struct Program {
  std::vector<Op> ops;

  // Wire format round trip. Parse is the only decoder and a trust boundary
  // (the corpus may be hand-edited or synced from other fuzzers): it checks
  // the wire boundaries (bad-header, truncated, oversize-data,
  // trailing-bytes), then runs spec::Verify on the decoded ops, and returns
  // the program only when no rule fires. `verdict`, if given, receives every
  // diagnostic with its byte offset.
  Bytes Serialize() const;
  static std::optional<Program> Parse(const Bytes& wire, const Spec& spec,
                                      spec::Result* verdict = nullptr);

  // Incremental FNV-1a over ops [0, end_op), allocation-free: the key of
  // corpus dedup. Two programs whose op sequences differ hash differently
  // (op/arg/data lengths are folded in).
  uint64_t OpsHash(size_t end_op) const;

  // Makes any op sequence well-formed: afterwards spec::Verify(*this, spec)
  // is clean. Rewrites invalid arg references to the latest live value of
  // the right type (or drops ops with no candidate), normalizes payloads to
  // their node's data kind, keeps only the first snapshot marker that
  // directly follows a kept packet op, and cuts the program at
  // kMaxProgramOps.
  void Repair(const Spec& spec);

  // Value ids of `edge_type` live immediately before op `at` (`at` past the
  // end means end of program), in id order: the mutator's insertion-point
  // binding map. Programs in the middle of a mutation are not valid yet, so
  // this only assumes values are produced in op order: an op whose arity
  // does not match its node type consumes nothing, and any other consumed
  // id below the count of values produced so far dies, whatever its type.
  std::vector<uint16_t> LiveValues(const Spec& spec, size_t at, int edge_type) const;

  // Indices of ops that deliver payload (semantic kPacket). The "number of
  // packets" the snapshot policies reason about.
  std::vector<size_t> PacketOpIndices(const Spec& spec) const;

  // Removes any snapshot marker ops.
  void StripSnapshotMarkers();
  // Inserts a snapshot marker directly after the packet with the given index
  // (position within PacketOpIndices order).
  void InsertSnapshotAfterPacket(const Spec& spec, size_t packet_index);
  std::optional<size_t> SnapshotMarkerPos() const;

  size_t TotalDataBytes() const;
};

}  // namespace nyx

#endif  // SRC_SPEC_PROGRAM_H_
