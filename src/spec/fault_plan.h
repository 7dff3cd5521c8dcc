// Typed fault plans for the NodeSemantic::kFault opcode ("No Peer, no Cry",
// PAPERS.md). A fault node borrows a connection edge and queues one plan on
// that connection's socket; NetEmu consults the queue inside the libc-shaped
// calls and replays the failure deterministically. Plans travel as the op's
// 4-byte kU32 payload, so they mutate, serialize and verify exactly like any
// other scalar data — no side channel, no host randomness.
//
// Wire layout (little-endian, 4 bytes):
//   [0] kind   FaultKind
//   [1] count  burst length, 1..kMaxFaultBurst (how many calls the fault
//              fires on before the queue entry retires)
//   [2:3] arg  kind-specific parameter: byte cap for short reads/writes,
//              expiry in virtual milliseconds for timeouts, ignored otherwise

#ifndef SRC_SPEC_FAULT_PLAN_H_
#define SRC_SPEC_FAULT_PLAN_H_

#include <cstdint>
#include <optional>

#include "src/common/bytes.h"

namespace nyx {

enum class FaultKind : uint8_t {
  kShortRead,   // Recv returns at most `arg` bytes (min 1)
  kShortWrite,  // Send accepts at most `arg` bytes (min 1)
  kEagain,      // Recv/Send fail with kErrAgain despite readiness
  kIntr,        // Recv/Send/Accept fail with kErrIntr
  kConnReset,   // connection dies: kErrConnReset once, then EOF / kErrPipe
  kPeerClose,   // peer FIN mid-message: queued data stays readable, then EOF
  kTimeout,     // Recv/Connect expire with kErrTimedOut
};

inline constexpr size_t kFaultKindCount = 7;
inline constexpr uint8_t kMaxFaultBurst = 8;

inline const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kShortRead:  return "short-read";
    case FaultKind::kShortWrite: return "short-write";
    case FaultKind::kEagain:     return "eagain";
    case FaultKind::kIntr:       return "eintr";
    case FaultKind::kConnReset:  return "conn-reset";
    case FaultKind::kPeerClose:  return "peer-close";
    case FaultKind::kTimeout:    return "timeout";
  }
  return "?";
}

struct FaultPlan {
  FaultKind kind = FaultKind::kShortRead;
  uint8_t count = 1;
  uint16_t arg = 0;

  bool operator==(const FaultPlan&) const = default;

  bool Valid() const {
    return static_cast<uint8_t>(kind) < kFaultKindCount && count >= 1 &&
           count <= kMaxFaultBurst;
  }

  Bytes Encode() const {
    return {static_cast<uint8_t>(kind), count, static_cast<uint8_t>(arg & 0xff),
            static_cast<uint8_t>(arg >> 8)};
  }

  // Strict decode: exactly 4 bytes and a well-formed plan, else nullopt.
  static std::optional<FaultPlan> Decode(const Bytes& data) {
    if (data.size() != 4) return std::nullopt;
    FaultPlan plan;
    plan.kind = static_cast<FaultKind>(data[0]);
    plan.count = data[1];
    plan.arg = static_cast<uint16_t>(data[2] | (data[3] << 8));
    if (!plan.Valid()) return std::nullopt;
    return plan;
  }

  // Clamping decode for Program::Repair: any 4 bytes (short payloads are
  // zero-extended by the caller) become the nearest valid plan, so mutated
  // programs always re-verify.
  static FaultPlan Sanitize(const Bytes& data) {
    FaultPlan plan;
    if (!data.empty()) plan.kind = static_cast<FaultKind>(data[0] % kFaultKindCount);
    if (data.size() > 1) plan.count = data[1];
    if (plan.count < 1) plan.count = 1;
    if (plan.count > kMaxFaultBurst) plan.count = kMaxFaultBurst;
    if (data.size() > 3) plan.arg = static_cast<uint16_t>(data[2] | (data[3] << 8));
    return plan;
  }
};

}  // namespace nyx

#endif  // SRC_SPEC_FAULT_PLAN_H_
