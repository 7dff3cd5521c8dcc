#include "src/fuzz/mutator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/spec/fault_plan.h"
#include "src/spec/verify.h"

namespace nyx {

namespace {
constexpr uint32_t kInteresting32[] = {0,          1,          16,         32,
                                       64,         100,        127,        128,
                                       255,        256,        512,        1000,
                                       1024,       4096,       32767,      32768,
                                       65535,      65536,      0x7fffffff, 0x80000000,
                                       0xffffffff};
constexpr size_t kMaxPacketBytes = 4096;
// Token alphabet for text protocols (the built-in dictionary AFL-style
// fuzzers ship): separators and structural characters that gate parser
// branches far more often than random bytes do.
constexpr uint8_t kTokenBytes[] = {'.', '/', ' ', ':', '-', '<', '>', '@', '*',
                                   ',', ';', '=', '(', ')', '\r', '\n', '0', '1'};
}  // namespace

void Mutator::HavocBytes(Bytes& data) {
  const uint64_t rounds = 1 + rng_.Below(8);
  for (uint64_t r = 0; r < rounds; r++) {
    if (data.empty()) {
      // Only insertion makes sense on an empty payload.
      const uint64_t n = 1 + rng_.Below(8);
      for (uint64_t i = 0; i < n; i++) {
        data.push_back(rng_.NextByte());
      }
      continue;
    }
    switch (rng_.Below(9)) {
      case 0: {  // bit flip
        data[rng_.Below(data.size())] ^= static_cast<uint8_t>(1u << rng_.Below(8));
        break;
      }
      case 1: {  // byte set
        data[rng_.Below(data.size())] = rng_.NextByte();
        break;
      }
      case 2: {  // arithmetic +-35
        uint8_t& b = data[rng_.Below(data.size())];
        b = static_cast<uint8_t>(b + rng_.Range(1, 35) * (rng_.Chance(1, 2) ? 1 : -1));
        break;
      }
      case 3: {  // interesting 32-bit value (LE), truncated to what fits
        const uint32_t v = kInteresting32[rng_.Below(std::size(kInteresting32))];
        const size_t pos = rng_.Below(data.size());
        for (size_t i = 0; i < 4 && pos + i < data.size(); i++) {
          data[pos + i] = static_cast<uint8_t>(v >> (8 * i));
        }
        break;
      }
      case 4: {  // block insert
        if (data.size() < kMaxPacketBytes) {
          const uint64_t n = 1 + rng_.Below(16);
          const size_t pos = rng_.Below(data.size() + 1);
          // Repeated fills draw from the token alphabet half the time (when
          // available): "///" or "..." blocks open structural paths that a
          // single random byte never would.
          const uint8_t fill = dictionary_ && rng_.Chance(1, 2)
                                   ? kTokenBytes[rng_.Below(std::size(kTokenBytes))]
                                   : rng_.NextByte();
          const bool repeat = rng_.Chance(1, 2);
          data.insert(data.begin() + static_cast<long>(pos), n, fill);
          if (!repeat) {
            for (uint64_t i = 0; i < n; i++) {
              data[pos + i] = rng_.NextByte();
            }
          }
        }
        break;
      }
      case 5: {  // block delete
        const size_t pos = rng_.Below(data.size());
        const size_t n = 1 + rng_.Below(data.size() - pos);
        data.erase(data.begin() + static_cast<long>(pos),
                   data.begin() + static_cast<long>(pos + n));
        break;
      }
      case 6: {  // block overwrite with copy from elsewhere in the packet
        const size_t src = rng_.Below(data.size());
        const size_t dst = rng_.Below(data.size());
        const size_t n = 1 + rng_.Below(std::min<size_t>(16, data.size() - std::max(src, dst)));
        std::copy(data.begin() + static_cast<long>(src),
                  data.begin() + static_cast<long>(src + n),
                  data.begin() + static_cast<long>(dst));
        break;
      }
      case 7: {  // dictionary/ASCII-aware twiddles for text protocols
        const size_t pos = rng_.Below(data.size());
        if (dictionary_ && rng_.Chance(1, 2)) {
          data[pos] = kTokenBytes[rng_.Below(std::size(kTokenBytes))];
        } else if (data[pos] >= '0' && data[pos] <= '9') {
          data[pos] = static_cast<uint8_t>('0' + rng_.Below(10));
        } else {
          data[pos] ^= 0x20;  // case flip
        }
        break;
      }
      case 8: {  // truncate
        data.resize(rng_.Below(data.size()) + 1);
        break;
      }
    }
  }
  if (data.size() > kMaxPacketBytes) {
    data.resize(kMaxPacketBytes);
  }
}

void Mutator::FindMutablePackets(const Program& program, size_t first_mutable_op) {
  program.PacketOpIndices(spec_, packets_);
  packets_.erase(packets_.begin(),
                 std::lower_bound(packets_.begin(), packets_.end(), first_mutable_op));
}

bool Mutator::StructureMutation(Program& program, const std::vector<const Program*>& donors,
                                size_t first_mutable_op) {
  FindMutablePackets(program, first_mutable_op);
  const std::vector<size_t>& packets = packets_;

  switch (rng_.Below(6)) {
    case 0: {  // duplicate a packet in place
      if (packets.empty()) {
        return false;
      }
      const size_t at = packets[rng_.Below(packets.size())];
      Op copy = program.ops[at];
      program.ops.insert(program.ops.begin() + static_cast<long>(at), std::move(copy));
      return true;
    }
    case 1: {  // drop a packet
      if (packets.size() < 2) {
        return false;  // keep at least one mutable packet
      }
      program.ops.erase(program.ops.begin() +
                        static_cast<long>(packets[rng_.Below(packets.size())]));
      return true;
    }
    case 2: {  // swap two packets
      if (packets.size() < 2) {
        return false;
      }
      const size_t a = packets[rng_.Below(packets.size())];
      const size_t b = packets[rng_.Below(packets.size())];
      std::swap(program.ops[a], program.ops[b]);
      return true;
    }
    case 3: {  // truncate the tail
      if (packets.size() < 2) {
        return false;
      }
      const size_t cut = packets[1 + rng_.Below(packets.size() - 1)];
      program.ops.resize(cut);
      return true;
    }
    case 4: {  // splice: replace the tail with a donor's tail
      if (donors.empty() || packets.empty()) {
        return false;
      }
      const Program* donor = donors[rng_.Below(donors.size())];
      donor->PacketOpIndices(spec_, donor_packets_);
      if (donor_packets_.empty()) {
        return false;
      }
      const size_t cut = packets[rng_.Below(packets.size())];
      const size_t donor_from = donor_packets_[rng_.Below(donor_packets_.size())];
      program.ops.resize(cut);
      for (size_t i = donor_from; i < donor->ops.size(); i++) {
        if (!donor->ops[i].is_snapshot()) {
          program.ops.push_back(donor->ops[i]);
        }
      }
      return true;
    }
    case 5: {  // insert a packet copied from a donor (or duplicated locally)
      Op source;
      bool have = false;
      if (!donors.empty()) {
        const Program* donor = donors[rng_.Below(donors.size())];
        donor->PacketOpIndices(spec_, donor_packets_);
        if (!donor_packets_.empty()) {
          source = donor->ops[donor_packets_[rng_.Below(donor_packets_.size())]];
          have = true;
        }
      }
      if (!have && !packets.empty()) {
        source = program.ops[packets[rng_.Below(packets.size())]];
        have = true;
      }
      if (!have) {
        return false;
      }
      const size_t lo = std::max(first_mutable_op, static_cast<size_t>(1));
      if (program.ops.size() + 1 < lo) {
        return false;
      }
      const size_t at = lo + rng_.Below(program.ops.size() + 1 - lo);
      BindArgsLive(source, program, at);
      program.ops.insert(program.ops.begin() + static_cast<long>(at), std::move(source));
      return true;
    }
  }
  return false;
}

void Mutator::BindArgsLive(Op& op, const Program& program, size_t at) {
  if (op.is_snapshot() || op.node_type >= spec_.node_type_count()) {
    return;
  }
  const NodeTypeDef& node = spec_.node_type(op.node_type);
  if (op.args.size() != node.borrows.size() + node.consumes.size()) {
    return;  // malformed donor op: let Repair deal with it
  }
  for (size_t p = 0; p < op.args.size(); p++) {
    const int edge = p < node.borrows.size() ? node.borrows[p]
                                             : node.consumes[p - node.borrows.size()];
    program.LiveValues(spec_, at, edge, table_, live_);
    if (!live_.empty()) {
      op.args[p] = live_[rng_.Below(live_.size())];
    }
  }
}

bool Mutator::FaultMutation(Program& program, size_t first_mutable_op) {
  if (fault_nodes_.empty()) {
    return false;
  }
  fault_ops_.clear();
  for (size_t i = first_mutable_op; i < program.ops.size(); i++) {
    const Op& op = program.ops[i];
    if (!op.is_snapshot() && op.node_type < spec_.node_type_count() &&
        spec_.node_type(op.node_type).semantic == NodeSemantic::kFault) {
      fault_ops_.push_back(i);
    }
  }
  // Kind-aware random plan: args that make sense for the kind (a byte cap
  // for short reads/writes, milliseconds for timeouts) reach interesting
  // target branches far faster than uniform 16-bit noise.
  auto random_plan = [&]() {
    FaultPlan plan;
    plan.kind = static_cast<FaultKind>(rng_.Below(kFaultKindCount));
    plan.count = static_cast<uint8_t>(1 + rng_.Below(kMaxFaultBurst));
    switch (plan.kind) {
      case FaultKind::kShortRead:
      case FaultKind::kShortWrite:
        plan.arg = static_cast<uint16_t>(1 + rng_.Below(64));
        break;
      case FaultKind::kTimeout:
        // Short waits: what matters is *that* the timeout path runs, not how
        // long it waits — large arguments just burn the campaign's virtual
        // time budget (a 999ms plan costs 1/60th of a default campaign).
        plan.arg = static_cast<uint16_t>(1 + rng_.Below(10));
        break;
      case FaultKind::kEagain:
      case FaultKind::kIntr:
      case FaultKind::kConnReset:
      case FaultKind::kPeerClose:
        plan.arg = 0;  // netemu ignores the arg for these kinds
        break;
    }
    return plan;
  };
  switch (rng_.Below(3)) {
    case 0: {  // insert a fault op, bound to a live connection
      Op op;
      op.node_type = static_cast<uint8_t>(fault_nodes_[rng_.Below(fault_nodes_.size())]);
      const NodeTypeDef& node = spec_.node_type(op.node_type);
      op.args.assign(node.borrows.size() + node.consumes.size(), 0);
      random_plan().EncodeTo(op.data);
      const size_t lo = std::max(first_mutable_op, static_cast<size_t>(1));
      if (program.ops.size() + 1 < lo) {
        return false;
      }
      const size_t at = lo + rng_.Below(program.ops.size() + 1 - lo);
      BindArgsLive(op, program, at);
      program.ops.insert(program.ops.begin() + static_cast<long>(at), std::move(op));
      return true;
    }
    case 1: {  // re-plan an existing fault op
      if (fault_ops_.empty()) {
        return false;
      }
      // The plan's draws come before the op's; swapping them would change
      // every later mutation of a seed.
      const FaultPlan plan = random_plan();
      plan.EncodeTo(program.ops[fault_ops_[rng_.Below(fault_ops_.size())]].data);
      return true;
    }
    default: {  // delete a fault op
      if (fault_ops_.empty()) {
        return false;
      }
      program.ops.erase(program.ops.begin() +
                        static_cast<long>(fault_ops_[rng_.Below(fault_ops_.size())]));
      return true;
    }
  }
}

void Mutator::Mutate(Program& program, const std::vector<const Program*>& corpus_donors,
                     size_t first_mutable_op) {
  program.StripSnapshotMarkers();
  const uint64_t stacked = 1 + rng_.Below(4);
  for (uint64_t s = 0; s < stacked; s++) {
    // Byte-level havoc is the workhorse; structural changes are rarer, like
    // AFL's havoc-vs-splice balance.
    if (rng_.Chance(3, 4)) {
      FindMutablePackets(program, first_mutable_op);
      if (!packets_.empty()) {
        HavocBytes(program.ops[packets_[rng_.Below(packets_.size())]].data);
        continue;
      }
    }
    // With the fault-injection knob on, a slice of the structural budget
    // goes to fault-plan edits; the packet-structure distribution is
    // untouched otherwise.
    if (faults_ && rng_.Chance(1, 4) && FaultMutation(program, first_mutable_op)) {
      continue;
    }
    StructureMutation(program, corpus_donors, first_mutable_op);
  }
  program.Repair(spec_, &table_);
#ifndef NDEBUG
  // Debug-build post-condition: whatever the mutation stack did, Repair must
  // have restored affinity and well-formedness. A failure here is a mutator
  // or repair bug, not a property of the input.
  const spec::Result verdict = spec::Verify(program, spec_);
  NYX_CHECK(verdict.ok()) << "mutator emitted ill-formed program: " << verdict.Summary();
#endif
}

}  // namespace nyx
