#include "src/spec/program.h"

#include <algorithm>
#include <string>

#include "src/common/hash.h"
#include "src/spec/fault_plan.h"
#include "src/spec/verify.h"

namespace nyx {

namespace {
constexpr uint32_t kWireMagic = 0x4e595842;  // "NYXB"
constexpr uint8_t kWireVersion = 1;

bool IsPacketOp(const Op& op, const Spec& spec) {
  return !op.is_snapshot() && op.node_type < spec.node_type_count() &&
         spec.node_type(op.node_type).semantic == NodeSemantic::kPacket;
}
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

std::optional<Program> Program::Parse(const Bytes& wire, const Spec& spec,
                                      spec::Result* verdict) {
  spec::Result local;
  spec::Result& out = verdict != nullptr ? *verdict : local;
  out = spec::Result{};
  auto reject = [&](spec::Rule rule, size_t op_index, size_t byte_offset, std::string message) {
    out.Add({rule, op_index, byte_offset, std::move(message)});
    return std::nullopt;
  };
  if (wire.size() < kWireHeaderBytes) {
    return reject(spec::Rule::kBadHeader, 0, 0,
                  "buffer of " + std::to_string(wire.size()) +
                      " bytes is smaller than the header");
  }
  if (ReadLe32(wire, 0) != kWireMagic) {
    return reject(spec::Rule::kBadHeader, 0, 0, "bad magic");
  }
  if (wire[4] != kWireVersion) {
    return reject(spec::Rule::kBadHeader, 0, 4, "unsupported version " + std::to_string(wire[4]));
  }
  const uint16_t count = ReadLe16(wire, 5);

  // Each op's encoding must begin where the previous one ended and fit in
  // the buffer; every other rule is left to spec::Verify so it gets its
  // precise rule id. A decoded op therefore sits exactly where Serialize
  // would put it, which is the offset Verify reports.
  Program prog;
  size_t off = kWireHeaderBytes;
  for (uint16_t i = 0; i < count; i++) {
    const size_t start = off;
    auto truncated = [&](const char* what) {
      return reject(spec::Rule::kTruncated, i, start,
                    std::string("op encoding runs past the end of the buffer (") + what + ")");
    };
    if (off >= wire.size()) {
      return truncated("opcode");
    }
    Op op;
    op.node_type = wire[off++];
    if (op.is_snapshot()) {
      prog.ops.push_back(std::move(op));
      continue;
    }
    if (off >= wire.size()) {
      return truncated("operand count");
    }
    const uint8_t argc = wire[off++];
    if (off + 2 * static_cast<size_t>(argc) > wire.size()) {
      return truncated("operands");
    }
    for (uint8_t a = 0; a < argc; a++) {
      op.args.push_back(ReadLe16(wire, off));
      off += 2;
    }
    if (off + 4 > wire.size()) {
      return truncated("data length");
    }
    const uint32_t len = ReadLe32(wire, off);
    off += 4;
    if (len > kMaxOpDataBytes) {
      return reject(spec::Rule::kOversizeData, i, start,
                    "encoded data length " + std::to_string(len) + " exceeds the wire limit");
    }
    if (off + len > wire.size()) {
      return truncated("data bytes");
    }
    op.data.assign(wire.begin() + static_cast<long>(off),
                   wire.begin() + static_cast<long>(off + len));
    off += len;
    prog.ops.push_back(std::move(op));
  }
  if (off != wire.size()) {
    out.Add({spec::Rule::kTrailingBytes, count, off,
             std::to_string(wire.size() - off) + " bytes after the last op"});
  }
  for (spec::Diag& d : spec::Verify(prog, spec).diags) {
    out.Add(std::move(d));
  }
  if (!out.ok()) {
    return std::nullopt;
  }
  return prog;
}

void Program::Repair(const Spec& spec, spec::ValueTable* scratch) {
  spec::ValueTable local;
  spec::ValueTable& table = scratch != nullptr ? *scratch : local;
  table.values.clear();
  // Kept ops move down to `kept` in place, so the ops vector and the kept
  // ops' buffers are reused rather than rebuilt.
  size_t kept = 0;
  auto keep = [&](Op& op) {
    if (&op != &ops[kept]) {
      ops[kept] = std::move(op);
    }
    kept++;
  };
  // Binds operand `arg` to a live value of `edge`: its own if that is live,
  // else the latest one. False when there is none.
  auto bind = [&](Op& op, size_t arg, int edge) {
    if (table.IsLive(op.args[arg], edge)) {
      return true;
    }
    const std::optional<uint16_t> candidate = table.LatestLive(edge);
    if (candidate.has_value()) {
      op.args[arg] = *candidate;
    }
    return candidate.has_value();
  };
  bool seen_snapshot = false;
  for (Op& op : ops) {
    if (kept == kMaxProgramOps) {
      break;
    }
    if (op.is_snapshot()) {
      // The only marker position the verifier accepts: directly after a
      // packet op, and only once.
      const bool after_packet = kept > 0 && !ops[kept - 1].is_snapshot() &&
                                spec.node_type(ops[kept - 1].node_type).semantic ==
                                    NodeSemantic::kPacket;
      if (!seen_snapshot && after_packet) {
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
    for (size_t b = 0; ok && b < node.borrows.size(); b++) {
      ok = bind(op, b, node.borrows[b]);
    }
    // A consumed value dies at once, so a second consume of the same type
    // cannot bind to it; if the op is dropped, its consumes live again.
    size_t consumed = 0;
    while (ok && consumed < node.consumes.size()) {
      const size_t arg = node.borrows.size() + consumed;
      ok = bind(op, arg, node.consumes[consumed]);
      if (ok) {
        table.Kill(op.args[arg]);
        consumed++;
      }
    }
    if (!ok) {
      for (size_t c = 0; c < consumed; c++) {
        table.values[op.args[node.borrows.size() + c]].live = true;
      }
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
        if (op.data.size() > kMaxOpDataBytes) {
          op.data.resize(kMaxOpDataBytes);
        }
        break;
    }
    // Fault payloads additionally carry semantic range rules (valid kind,
    // bounded burst); clamp them to the nearest well-formed plan.
    if (node.semantic == NodeSemantic::kFault) {
      FaultPlan::Sanitize(op.data).EncodeTo(op.data);
    }
    table.Produce(node);
    keep(op);
  }
  ops.resize(kept);
}

void Program::LiveValues(const Spec& spec, size_t at, int edge_type, spec::ValueTable& table,
                         std::vector<uint16_t>& live) const {
  table.values.clear();
  const size_t end = std::min(at, ops.size());
  for (size_t i = 0; i < end; i++) {
    const Op& op = ops[i];
    if (op.is_snapshot() || op.node_type >= spec.node_type_count()) {
      continue;
    }
    const NodeTypeDef& node = spec.node_type(op.node_type);
    if (op.args.size() == node.borrows.size() + node.consumes.size()) {
      for (size_t c = node.borrows.size(); c < op.args.size(); c++) {
        if (op.args[c] < table.values.size()) {
          table.Kill(op.args[c]);
        }
      }
    }
    table.Produce(node);
  }
  live.clear();
  for (size_t id = 0; id < table.values.size(); id++) {
    if (table.values[id].live && table.values[id].edge_type == edge_type) {
      live.push_back(static_cast<uint16_t>(id));
    }
  }
}

void Program::PacketOpIndices(const Spec& spec, std::vector<size_t>& out) const {
  out.clear();
  for (size_t i = 0; i < ops.size(); i++) {
    if (IsPacketOp(ops[i], spec)) {
      out.push_back(i);
    }
  }
}

size_t Program::PacketCount(const Spec& spec) const {
  return static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(), [&](const Op& op) { return IsPacketOp(op, spec); }));
}

void Program::StripSnapshotMarkers() {
  ops.erase(std::remove_if(ops.begin(), ops.end(), [](const Op& op) { return op.is_snapshot(); }),
            ops.end());
}

void Program::InsertSnapshotAfterPacket(const Spec& spec, size_t packet_index) {
  StripSnapshotMarkers();
  // The packet op with index `packet_index`, or the last one.
  std::optional<size_t> after;
  size_t seen = 0;
  for (size_t i = 0; i < ops.size() && seen <= packet_index; i++) {
    if (IsPacketOp(ops[i], spec)) {
      after = i;
      seen++;
    }
  }
  if (!after.has_value()) {
    return;
  }
  Op marker;
  marker.node_type = kSnapshotOpcode;
  ops.insert(ops.begin() + static_cast<long>(*after) + 1, std::move(marker));
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
