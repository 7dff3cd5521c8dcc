#include "src/fuzz/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/telemetry.h"

namespace nyx {

NyxEngine::NyxEngine(const EngineConfig& config, TargetFactory factory, const Spec& spec)
    : config_(config), spec_(spec) {
  vm_ = std::make_unique<Vm>(config_.vm);
  vm_->AttachClock(&clock_, &config_.cost);
  net_.AttachClock(&clock_, &config_.cost);
  target_ = factory();
  target_info_ = target_->info();
  if (config_.audit) {
    auditor_ = std::make_unique<DivergenceAuditor>();
  }

  // Snapshot-state inventory (DESIGN.md §10): every piece of host-side state
  // that a restore must bring back is registered here, and the snapshot aux
  // blob is assembled from these hooks — state outside the registry cannot
  // ride along even by accident.
  SnapshotStateRegistry::HostState netemu_state;
  netemu_state.name = "netemu.socket_table";
  netemu_state.owner = "src/netemu/netemu.cc";
  netemu_state.capture = [this] { return net_.Serialize(); };
  netemu_state.restore = [this](const Bytes& blob) { return net_.Deserialize(blob); };
  state_registry_.RegisterHostState(std::move(netemu_state));

  SnapshotStateRegistry::HostState interp_state;
  interp_state.name = "engine.interp";
  interp_state.owner = "src/fuzz/engine.cc";
  interp_state.capture = [this] {
    Bytes out;
    PutLe32(out, static_cast<uint32_t>(value_conns_.size()));
    for (int c : value_conns_) {
      PutLe32(out, static_cast<uint32_t>(c));
    }
    PutLe32(out, resume_op_);
    PutLe32(out, static_cast<uint32_t>(connection_ops_seen_));
    return out;
  };
  interp_state.restore = [this](const Bytes& blob) {
    size_t off = 0;
    const uint32_t nvals = ReadLe32(blob, off);
    off += 4;
    if (blob.size() != 4 + 4ull * nvals + 8) {
      return false;
    }
    value_conns_.clear();
    for (uint32_t i = 0; i < nvals; i++) {
      value_conns_.push_back(static_cast<int>(ReadLe32(blob, off)));
      off += 4;
    }
    resume_op_ = ReadLe32(blob, off);
    off += 4;
    connection_ops_seen_ = ReadLe32(blob, off);
    return true;
  };
  state_registry_.RegisterHostState(std::move(interp_state));

  // Per-exec ephemerals: never snapshotted, asserted back to their idle
  // state between executions where an invariant exists.
  state_registry_.DeclareEphemeral("engine.exec_rng", "src/fuzz/engine.cc");
  state_registry_.DeclareEphemeral("guest.fault_jmp", "src/fuzz/guest.cc",
                                   [] { return FaultGuardIdle(); });
  state_registry_.DeclareEphemeral("coverage.trace_map", "src/fuzz/coverage.h");
  // Telemetry is observational host state: phase timers never feed back
  // into execution, so they are per-exec ephemeral, not snapshot state. The
  // verify hook pins the invariant that makes this sound — no phase scope
  // may straddle an execution boundary (a frame left open would attribute
  // one exec's time to another).
  state_registry_.DeclareEphemeral("telemetry.phase_timers", "src/common/telemetry.cc",
                                   [] { return telemetry::PhaseDepth() == 0; });
}

Bytes NyxEngine::SerializeInterpState(uint32_t resume_op) {
  resume_op_ = resume_op;
  return state_registry_.CaptureAll();
}

void NyxEngine::RestoreInterpState(const Bytes& aux) {
  // Aux blobs are engine-produced; a mismatch means corruption. Fail hard
  // rather than restoring partial state.
  NYX_CHECK(state_registry_.RestoreAll(aux)) << "corrupt snapshot aux blob";
}

void NyxEngine::Boot() {
  CoverageMap boot_cov;
  GuestContext ctx(*vm_, net_, boot_cov, clock_, config_.cost);
  ctx.set_asan(config_.asan);
  ctx.ReseedRng(config_.seed);
  target_->Init(ctx);
  GuardedStep(*target_, ctx);

  // Name the guest-physical layout so the divergence auditor can attribute
  // a diverging page to its owner (guest.h layout + the target's declared
  // state-struct size).
  const uint64_t mem_bytes = vm_->mem().size_bytes();
  state_registry_.RegisterGuestRegion("guest.reserved", 0, kStateBase);
  const uint64_t state_window = kHeapBase - kStateBase;
  const uint64_t state_bytes =
      target_info_.state_bytes > 0 && target_info_.state_bytes < state_window
          ? target_info_.state_bytes
          : state_window;
  state_registry_.RegisterGuestRegion("target." + target_info_.name + ".state", kStateBase,
                                      state_bytes);
  if (state_bytes < state_window) {
    state_registry_.RegisterGuestRegion("guest.state_slack", kStateBase + state_bytes,
                                        state_window - state_bytes);
  }
  if (mem_bytes > kHeapBase) {
    const uint64_t heap_end = mem_bytes < kScratchBase ? mem_bytes : kScratchBase;
    state_registry_.RegisterGuestRegion("guest.heap", kHeapBase, heap_end - kHeapBase);
  }
  if (mem_bytes > kScratchBase) {
    state_registry_.RegisterGuestRegion("guest.scratch", kScratchBase,
                                        mem_bytes - kScratchBase);
  }

  // The target is now parked on Accept/Recv/Poll over the attack surface:
  // the automatic root snapshot point, "after starting the process and
  // directly before the first byte of input data is passed to the target".
  value_conns_.clear();
  connection_ops_seen_ = 0;
  vm_->TakeRootSnapshot(SerializeInterpState(0));
  booted_ = true;
}

int NyxEngine::ResolveConn(const Op& op) const {
  if (op.args.empty()) {
    return -1;
  }
  const uint16_t value_id = op.args[0];
  if (value_id < value_conns_.size()) {
    return value_conns_[value_id];
  }
  // Dangling reference (the mutator repairs most, but stay defensive): fall
  // back to the most recent connection.
  return value_conns_.empty() ? -1 : value_conns_.back();
}

ExecResult NyxEngine::Run(const Program& input, CoverageMap& cov) {
  execs_++;
  if (auditor_ == nullptr) {
    return RunInternal(input, cov);
  }

  // Audit mode (NYX_AUDIT=1): run the program, replay it down the identical
  // path, and compare end states. See src/fuzz/audit.h for the oracle.
  const std::vector<Op> pre_link = link_;
  ExecResult result_a = RunInternal(input, cov);
  {
    // Everything past the primary execution is audit overhead:
    // fingerprinting, the replay (whose inner phases nest here and keep
    // their own self-time), and the cross-restore check. The scope closes
    // before CheckEphemeral below — that check runs the telemetry
    // phase-depth verify hook, which must observe depth zero.
    telemetry::ScopedPhase phase(telemetry::Phase::kAudit);
    const StateFingerprint fp_a = CaptureFingerprint(cov, result_a);

    // Force the replay down run A's exact path: when A ran from the root
    // and created the incremental at the marker, the replay must run from
    // the root too rather than resume through the link A just recorded.
    // Restoring the pre-A link is sufficient: if A resumed, the link and
    // its snapshot are unchanged; if not, the pre-A link does not match
    // this input either, and B re-creates the same snapshot from
    // identical state.
    link_ = pre_link;
    CoverageMap audit_cov;
    ExecResult result_b = RunInternal(input, audit_cov);
    const StateFingerprint fp_b = CaptureFingerprint(audit_cov, result_b);
    auditor_->CompareReplay(fp_a, fp_b, state_registry_);

    // Cross-restore check: if the replay recreated the incremental
    // snapshot, a third execution takes the restore-and-resume shortcut
    // through it and must land exactly where the full replay did, the run
    // that created the snapshot it resumes from.
    if (!result_a.used_incremental && result_b.created_incremental && vm_->has_incremental()) {
      audit_cov.Reset();
      ExecResult result_c = RunInternal(input, audit_cov);
      if (result_c.used_incremental) {
        const StateFingerprint fp_c = CaptureFingerprint(audit_cov, result_c);
        auditor_->CompareCrossRestore(fp_b, fp_c, state_registry_);
      }
    }
  }
  auditor_->ReportEphemeralFailures(state_registry_.CheckEphemeral());
  return result_a;
}

ExecResult NyxEngine::RunInternal(const Program& input, CoverageMap& cov) {
  ExecResult result;
  const uint64_t t0 = clock_.now_ns();

  size_t start_op = 0;
  {
    telemetry::ScopedPhase phase(telemetry::Phase::kSnapshotRestore);
    // Resume from the incremental when the new input starts with exactly the
    // ops it was captured after, marker included.
    const bool resume = !link_.empty() && vm_->has_incremental() &&
                        link_.size() <= input.ops.size() &&
                        std::equal(link_.begin(), link_.end(), input.ops.begin());
    if (resume) {
      vm_->RestoreIncremental();
      RestoreInterpState(vm_->current_aux());
      start_op = resume_op_;
      result.used_incremental = true;
    } else {
      vm_->RestoreRoot();
      RestoreInterpState(vm_->current_aux());
      start_op = 0;
      link_.clear();
    }
  }

  GuestContext ctx(*vm_, net_, cov, clock_, config_.cost);
  ctx.set_asan(config_.asan);
  // The campaign seed alone: an input-derived seed would cost a hash of the
  // whole input per exec, and no target Step draws from this RNG.
  ctx.ReseedRng(config_.seed);

  for (size_t i = start_op; i < input.ops.size() && !ctx.crash().crashed; i++) {
    const Op& op = input.ops[i];
    if (op.is_snapshot()) {
      if (result.used_incremental || result.created_incremental) {
        // Malformed input with a second marker (Validate rejects these, but
        // the engine must not abort on one): ignore it.
        continue;
      }
      telemetry::ScopedPhase phase(telemetry::Phase::kSnapshotRestore);
      vm_->CreateIncremental(SerializeInterpState(static_cast<uint32_t>(i + 1)));
      // The link ends with the marker op itself, so a later match implies
      // the candidate input also carries the marker at this position and
      // resuming at i+1 skips exactly the executed prefix.
      link_.assign(input.ops.begin(), input.ops.begin() + static_cast<long>(i + 1));
      result.created_incremental = true;
      continue;
    }
    if (op.node_type >= spec_.node_type_count()) {
      continue;
    }
    switch (spec_.node_type(op.node_type).semantic) {
      case NodeSemantic::kConnection: {
        int conn = -1;
        if (target_info_.is_client) {
          const auto& clients = net_.ClientConnections();
          if (connection_ops_seen_ < clients.size()) {
            conn = clients[connection_ops_seen_];
          }
        } else if (target_info_.transport == SockKind::kDgram) {
          conn = net_.FindDgramSocket(target_info_.port);
        } else {
          conn = net_.QueueConnection(target_info_.port);
        }
        connection_ops_seen_++;
        value_conns_.push_back(conn);
        GuardedStep(*target_, ctx);
        break;
      }
      case NodeSemantic::kPacket: {
        const int conn = ResolveConn(op);
        if (net_.ValidConn(conn)) {
          net_.DeliverPacket(conn, op.data);
          result.packets_delivered++;
          clock_.Advance(config_.cost.per_byte_ns * op.data.size());
          GuardedStep(*target_, ctx);
        }
        break;
      }
      case NodeSemantic::kClose: {
        const int conn = ResolveConn(op);
        if (net_.ValidConn(conn)) {
          net_.PeerClose(conn);
          GuardedStep(*target_, ctx);
        }
        break;
      }
      case NodeSemantic::kCustom:
        GuardedStep(*target_, ctx);
        break;
      case NodeSemantic::kFault: {
        // Queue the plan; the fault fires inside the target's own
        // Recv/Send/... calls on a later step. No GuardedStep here — the
        // op only arms state, it delivers nothing to react to.
        const int conn = ResolveConn(op);
        if (net_.ValidConn(conn)) {
          if (auto plan = FaultPlan::Decode(op.data)) {
            net_.QueueFault(conn, *plan);
          }
        }
        break;
      }
    }
  }

  result.crash = ctx.crash();
  result.ijon_max = ctx.IjonValue(0);
  result.vtime_ns = clock_.now_ns() - t0;
  last_exec_rng_hash_ = ctx.rng().StateHash();
  return result;
}

StateFingerprint NyxEngine::CaptureFingerprint(const CoverageMap& cov,
                                               const ExecResult& result) {
  StateFingerprint fp;
  GuestMemory& mem = vm_->mem();
  const size_t pages = mem.size_bytes() / kPageSize;
  fp.page_hashes.reserve(pages);
  for (size_t p = 0; p < pages; p++) {
    fp.page_hashes.push_back(Fnv1a64(mem.base() + p * kPageSize, kPageSize));
  }
  const DeviceState& dev = vm_->devices();
  for (size_t d = 0; d < dev.device_count(); d++) {
    fp.device_hashes.emplace_back(dev.name(d),
                                  Fnv1a64(dev.regs(d).data(), dev.regs(d).size()));
  }
  fp.disk_hash = Fnv1a64(vm_->disk().SectorPtr(0), vm_->disk().size_bytes());
  fp.host_hashes = SnapshotStateRegistry::EntryHashes(state_registry_.CaptureAll());
  fp.rng_hash = last_exec_rng_hash_;
  fp.edge_hash = Fnv1a64(cov.map().data(), cov.map().size());
  fp.sites.assign(cov.sites_hit().begin(), cov.sites_hit().end());
  fp.crashed = result.crash.crashed;
  fp.crash_id = result.crash.crash_id;
  fp.packets_delivered = result.packets_delivered;
  fp.ijon_max = result.ijon_max;
  return fp;
}

void NyxEngine::DropIncremental() {
  vm_->DropIncremental();
  link_.clear();
}

std::vector<Bytes> NyxEngine::LastResponses() const {
  std::vector<Bytes> out;
  for (int conn : value_conns_) {
    if (net_.ValidConn(conn)) {
      for (const Bytes& b : net_.Sent(conn)) {
        out.push_back(b);
      }
    }
  }
  return out;
}

}  // namespace nyx
