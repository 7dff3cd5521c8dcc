// Bytecode programs: the fuzzer's input representation.
//
// A Program is a sequence of ops over a Spec. The flat wire format is what
// lives in the corpus on disk; the structured form is what mutators and the
// execution engine work on. The snapshot marker op (kSnapshotOpcode) may be
// injected anywhere by the snapshot placement policy; it has no arguments.

#ifndef SRC_SPEC_PROGRAM_H_
#define SRC_SPEC_PROGRAM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/spec/spec.h"

namespace nyx {

// Wire-format constants shared by the codec (program.cc) and the static
// verifier (spec/verify.cc).
inline constexpr uint32_t kWireMagic = 0x4e595842;  // "NYXB"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kMaxProgramOps = 4096;
inline constexpr size_t kMaxOpDataBytes = 1 << 20;

struct Op {
  uint8_t node_type = 0;  // index into the spec, or kSnapshotOpcode
  std::vector<uint16_t> args;  // value ids: borrows first, then consumes
  Bytes data;

  bool is_snapshot() const { return node_type == kSnapshotOpcode; }
  bool operator==(const Op&) const = default;
};

struct Program {
  std::vector<Op> ops;

  // Wire format round trip. Parse is defensive: any malformed input yields
  // nullopt rather than UB (the corpus may be hand-edited or synced from
  // other fuzzers).
  Bytes Serialize() const;
  static std::optional<Program> Parse(const Bytes& wire, const Spec& spec);

  // Incremental FNV-1a over ops [0, end_op), allocation-free: the key of
  // corpus dedup and of the sharded frontier's dedup. Two programs whose op
  // sequences differ hash differently (op/arg/data lengths are folded in).
  uint64_t OpsHash(size_t end_op) const;

  // Affine type checking: every borrowed/consumed arg must reference an
  // existing, live value of the right edge type; consumed values die.
  bool Validate(const Spec& spec, std::string* error = nullptr) const;

  // Rewrites invalid arg references to the nearest valid live value (or
  // drops ops with no candidate), so mutation output is always executable.
  // Also strips duplicate snapshot markers (only the first is honoured).
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
