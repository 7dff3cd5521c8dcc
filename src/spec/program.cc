#include "src/spec/program.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/spec/fault_plan.h"

namespace nyx {

namespace {
// Tracks live values and their edge types during validation/repair.
struct ValueTracker {
  struct Value {
    int edge_type;
    bool live;
  };
  std::vector<Value> values;

  void Produce(const NodeTypeDef& node) {
    for (int out : node.outputs) {
      values.push_back({out, true});
    }
  }

  // Most recently created live value of the given type, if any.
  std::optional<uint16_t> LatestLive(int edge_type) const {
    for (size_t i = values.size(); i-- > 0;) {
      if (values[i].live && values[i].edge_type == edge_type) {
        return static_cast<uint16_t>(i);
      }
    }
    return std::nullopt;
  }

  bool IsLive(uint16_t id, int edge_type) const {
    return id < values.size() && values[id].live && values[id].edge_type == edge_type;
  }

  void Kill(uint16_t id) {
    // Call sites check IsLive() first, so an out-of-range id is a logic bug.
    NYX_DCHECK_LT(static_cast<size_t>(id), values.size());
    if (id < values.size()) {
      values[id].live = false;
    }
  }
};

}  // namespace

uint64_t Program::OpsHash(size_t end_op) const {
  uint64_t h = 0xcbf29ce484222325ull;
  const size_t end = std::min(end_op, ops.size());
  for (size_t i = 0; i < end; i++) {
    const Op& op = ops[i];
    h = Fnv1a64(&op.node_type, 1, h);
    const uint32_t nargs = static_cast<uint32_t>(op.args.size());
    h = Fnv1a64(&nargs, 4, h);
    for (uint16_t a : op.args) {
      h = Fnv1a64(&a, 2, h);
    }
    const uint32_t ndata = static_cast<uint32_t>(op.data.size());
    h = Fnv1a64(&ndata, 4, h);
    h = Fnv1a64(op.data.data(), op.data.size(), h);
  }
  return h;
}

Bytes Program::Serialize() const {
  Bytes out;
  PutLe32(out, kWireMagic);
  out.push_back(kWireVersion);
  PutLe16(out, static_cast<uint16_t>(ops.size()));
  for (const Op& op : ops) {
    out.push_back(op.node_type);
    if (op.is_snapshot()) {
      continue;
    }
    out.push_back(static_cast<uint8_t>(op.args.size()));
    for (uint16_t a : op.args) {
      PutLe16(out, a);
    }
    PutLe32(out, static_cast<uint32_t>(op.data.size()));
    Append(out, op.data);
  }
  return out;
}

std::optional<Program> Program::Parse(const Bytes& wire, const Spec& spec) {
  size_t off = 0;
  if (ReadLe32(wire, off) != kWireMagic) {
    return std::nullopt;
  }
  off += 4;
  if (off >= wire.size() || wire[off] != kWireVersion) {
    return std::nullopt;
  }
  off++;
  const uint16_t count = ReadLe16(wire, off);
  off += 2;
  if (count > kMaxProgramOps) {
    return std::nullopt;
  }
  Program prog;
  prog.ops.reserve(count);
  for (uint16_t i = 0; i < count; i++) {
    if (off >= wire.size()) {
      return std::nullopt;
    }
    Op op;
    op.node_type = wire[off++];
    if (op.node_type == kSnapshotOpcode) {
      prog.ops.push_back(std::move(op));
      continue;
    }
    if (op.node_type >= spec.node_type_count()) {
      return std::nullopt;
    }
    if (off >= wire.size()) {
      return std::nullopt;
    }
    const uint8_t argc = wire[off++];
    const NodeTypeDef& node = spec.node_type(op.node_type);
    if (argc != node.borrows.size() + node.consumes.size()) {
      return std::nullopt;
    }
    for (uint8_t a = 0; a < argc; a++) {
      if (off + 2 > wire.size()) {
        return std::nullopt;
      }
      op.args.push_back(ReadLe16(wire, off));
      off += 2;
    }
    const uint32_t len = ReadLe32(wire, off);
    off += 4;
    if (len > kMaxOpDataBytes || off + len > wire.size()) {
      return std::nullopt;
    }
    if (node.data == DataKind::kNone && len != 0) {
      return std::nullopt;
    }
    op.data.assign(wire.begin() + static_cast<long>(off),
                   wire.begin() + static_cast<long>(off + len));
    off += len;
    prog.ops.push_back(std::move(op));
  }
  if (off != wire.size()) {
    return std::nullopt;
  }
  return prog;
}

bool Program::Validate(const Spec& spec, std::string* error) const {
  ValueTracker tracker;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  size_t snapshots = 0;
  for (size_t i = 0; i < ops.size(); i++) {
    const Op& op = ops[i];
    if (op.is_snapshot()) {
      if (++snapshots > 1) {
        return fail("more than one snapshot marker");
      }
      continue;
    }
    if (op.node_type >= spec.node_type_count()) {
      return fail("unknown node type");
    }
    const NodeTypeDef& node = spec.node_type(op.node_type);
    if (op.args.size() != node.borrows.size() + node.consumes.size()) {
      return fail("arity mismatch in op " + std::to_string(i));
    }
    size_t arg = 0;
    for (int edge : node.borrows) {
      if (!tracker.IsLive(op.args[arg], edge)) {
        return fail("op " + std::to_string(i) + " borrows dead/ill-typed value");
      }
      arg++;
    }
    for (int edge : node.consumes) {
      if (!tracker.IsLive(op.args[arg], edge)) {
        return fail("op " + std::to_string(i) + " consumes dead/ill-typed value");
      }
      tracker.Kill(op.args[arg]);
      arg++;
    }
    tracker.Produce(node);
  }
  return true;
}

void Program::Repair(const Spec& spec) {
  ValueTracker tracker;
  // Kept ops move down to `kept` in place, so the ops vector and the kept
  // ops' buffers are reused rather than rebuilt.
  size_t kept = 0;
  auto keep = [&](Op& op) {
    if (&op != &ops[kept]) {
      ops[kept] = std::move(op);
    }
    kept++;
  };
  bool seen_snapshot = false;
  for (Op& op : ops) {
    if (op.is_snapshot()) {
      if (!seen_snapshot) {
        seen_snapshot = true;
        keep(op);
      }
      continue;
    }
    if (op.node_type >= spec.node_type_count()) {
      continue;
    }
    const NodeTypeDef& node = spec.node_type(op.node_type);
    op.args.resize(node.borrows.size() + node.consumes.size(), 0);
    bool ok = true;
    size_t arg = 0;
    for (int edge : node.borrows) {
      if (!tracker.IsLive(op.args[arg], edge)) {
        auto candidate = tracker.LatestLive(edge);
        if (!candidate.has_value()) {
          ok = false;
          break;
        }
        op.args[arg] = *candidate;
      }
      arg++;
    }
    if (ok) {
      for (int edge : node.consumes) {
        if (!tracker.IsLive(op.args[arg], edge)) {
          auto candidate = tracker.LatestLive(edge);
          if (!candidate.has_value()) {
            ok = false;
            break;
          }
          op.args[arg] = *candidate;
        }
        arg++;
      }
    }
    if (!ok) {
      continue;  // no live value of the required type: drop the op
    }
    // Scalar payloads have an exact wire width; havoc mutations and
    // hand-edited seeds may leave the wrong byte count, so normalize here
    // (zero-extend / truncate) to keep the verifier's post-condition.
    switch (node.data) {
      case DataKind::kU8:
        op.data.resize(1, 0);
        break;
      case DataKind::kU16:
        op.data.resize(2, 0);
        break;
      case DataKind::kU32:
        op.data.resize(4, 0);
        break;
      case DataKind::kNone:
        op.data.clear();
        break;
      case DataKind::kBytes:
        break;
    }
    // Fault payloads additionally carry semantic range rules (valid kind,
    // bounded burst); clamp them to the nearest well-formed plan.
    if (node.semantic == NodeSemantic::kFault) {
      op.data = FaultPlan::Sanitize(op.data).Encode();
    }
    arg = node.borrows.size();
    for (size_t c = 0; c < node.consumes.size(); c++) {
      tracker.Kill(op.args[arg + c]);
    }
    tracker.Produce(node);
    keep(op);
  }
  ops.resize(kept);
}

std::vector<uint16_t> Program::LiveValues(const Spec& spec, size_t at, int edge_type) const {
  ValueTracker tracker;
  const size_t end = std::min(at, ops.size());
  for (size_t i = 0; i < end; i++) {
    const Op& op = ops[i];
    if (op.is_snapshot() || op.node_type >= spec.node_type_count()) {
      continue;
    }
    const NodeTypeDef& node = spec.node_type(op.node_type);
    if (op.args.size() == node.borrows.size() + node.consumes.size()) {
      for (size_t c = node.borrows.size(); c < op.args.size(); c++) {
        if (op.args[c] < tracker.values.size()) {
          tracker.Kill(op.args[c]);
        }
      }
    }
    tracker.Produce(node);
  }
  std::vector<uint16_t> live;
  for (size_t id = 0; id < tracker.values.size(); id++) {
    if (tracker.values[id].live && tracker.values[id].edge_type == edge_type) {
      live.push_back(static_cast<uint16_t>(id));
    }
  }
  return live;
}

std::vector<size_t> Program::PacketOpIndices(const Spec& spec) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < ops.size(); i++) {
    if (!ops[i].is_snapshot() && ops[i].node_type < spec.node_type_count() &&
        spec.node_type(ops[i].node_type).semantic == NodeSemantic::kPacket) {
      out.push_back(i);
    }
  }
  return out;
}

void Program::StripSnapshotMarkers() {
  ops.erase(std::remove_if(ops.begin(), ops.end(), [](const Op& op) { return op.is_snapshot(); }),
            ops.end());
}

void Program::InsertSnapshotAfterPacket(const Spec& spec, size_t packet_index) {
  StripSnapshotMarkers();
  const std::vector<size_t> packets = PacketOpIndices(spec);
  if (packets.empty()) {
    return;
  }
  const size_t clamped = packet_index < packets.size() ? packet_index : packets.size() - 1;
  Op marker;
  marker.node_type = kSnapshotOpcode;
  ops.insert(ops.begin() + static_cast<long>(packets[clamped]) + 1, std::move(marker));
}

std::optional<size_t> Program::SnapshotMarkerPos() const {
  for (size_t i = 0; i < ops.size(); i++) {
    if (ops[i].is_snapshot()) {
      return i;
    }
  }
  return std::nullopt;
}

size_t Program::TotalDataBytes() const {
  size_t n = 0;
  for (const Op& op : ops) {
    n += op.data.size();
  }
  return n;
}

}  // namespace nyx
