#include "src/fuzz/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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
  if (auditor_ != nullptr) {
    const uint64_t mem_bytes = vm_->mem().size_bytes();
    auditor_->AddGuestRegion("guest.reserved", 0, kStateBase);
    const uint64_t state_window = kHeapBase - kStateBase;
    const uint64_t state_bytes =
        target_info_.state_bytes > 0 && target_info_.state_bytes < state_window
            ? target_info_.state_bytes
            : state_window;
    auditor_->AddGuestRegion("target." + target_info_.name + ".state", kStateBase,
                             state_bytes);
    if (state_bytes < state_window) {
      auditor_->AddGuestRegion("guest.state_slack", kStateBase + state_bytes,
                               state_window - state_bytes);
    }
    if (mem_bytes > kHeapBase) {
      const uint64_t heap_end = mem_bytes < kScratchBase ? mem_bytes : kScratchBase;
      auditor_->AddGuestRegion("guest.heap", kHeapBase, heap_end - kHeapBase);
    }
    if (mem_bytes > kScratchBase) {
      auditor_->AddGuestRegion("guest.scratch", kScratchBase, mem_bytes - kScratchBase);
    }
  }

  // The target is now parked on Accept/Recv over the attack surface: the
  // automatic root snapshot point, "after starting the process and directly
  // before the first byte of input data is passed to the target".
  interp_ = InterpState{};
  vm_->TakeRootSnapshot();
  root_ = HostSnapshot{net_.state(), interp_, 0};
  booted_ = true;
}

int NyxEngine::ResolveConn(const Op& op) const {
  if (op.args.empty()) {
    return -1;
  }
  const uint16_t value_id = op.args[0];
  const std::vector<int>& conns = interp_.value_conns;
  if (value_id < conns.size()) {
    return conns[value_id];
  }
  // Dangling reference (the mutator repairs most, but stay defensive): fall
  // back to the most recent connection.
  return conns.empty() ? -1 : conns.back();
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
    // before the ephemeral check below, which must observe phase depth
    // zero.
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
    auditor_->CompareReplay(fp_a, fp_b);

    // Cross-restore check: if the replay recreated the incremental
    // snapshot, a third execution takes the restore-and-resume shortcut
    // through it and must land exactly where the full replay did, the run
    // that created the snapshot it resumes from.
    if (!result_a.used_incremental && result_b.created_incremental && vm_->has_incremental()) {
      audit_cov.Reset();
      ExecResult result_c = RunInternal(input, audit_cov);
      if (result_c.used_incremental) {
        const StateFingerprint fp_c = CaptureFingerprint(audit_cov, result_c);
        auditor_->CompareCrossRestore(fp_b, fp_c);
      }
    }
  }
  // Per-exec ephemerals must be idle between executions.
  auditor_->CheckEphemerals(FaultGuardIdle(), telemetry::PhaseDepth() == 0);
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
      net_.Restore(inc_.net);
      interp_ = inc_.interp;
      start_op = inc_.resume_op;
      result.used_incremental = true;
    } else {
      vm_->RestoreRoot();
      net_.Restore(root_.net);
      interp_ = root_.interp;
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
        // Malformed input with a second marker (spec::Verify rejects these, but
        // the engine must not abort on one): ignore it.
        continue;
      }
      telemetry::ScopedPhase phase(telemetry::Phase::kSnapshotRestore);
      vm_->CreateIncremental();
      inc_ = HostSnapshot{net_.state(), interp_, static_cast<uint32_t>(i + 1)};
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
          if (interp_.connection_ops_seen < clients.size()) {
            conn = clients[interp_.connection_ops_seen];
          }
        } else if (target_info_.transport == SockKind::kDgram) {
          conn = net_.FindDgramSocket(target_info_.port);
        } else {
          conn = net_.QueueConnection(target_info_.port);
        }
        interp_.connection_ops_seen++;
        interp_.value_conns.push_back(conn);
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
  fp.net = net_.state();
  fp.interp = interp_;
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
  for (int conn : interp_.value_conns) {
    if (net_.ValidConn(conn)) {
      for (const Bytes& b : net_.Sent(conn)) {
        out.push_back(b);
      }
    }
  }
  return out;
}

}  // namespace nyx
