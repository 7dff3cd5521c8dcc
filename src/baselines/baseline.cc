#include "src/baselines/baseline.h"

#include <chrono>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace nyx {

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kAflnet:
      return "aflnet";
    case BaselineKind::kAflnetNoState:
      return "aflnet-no-state";
    case BaselineKind::kAflnwe:
      return "aflnwe";
    case BaselineKind::kAflppDesock:
      return "afl++-desock";
    case BaselineKind::kIjon:
      return "ijon";
  }
  return "?";
}

BaselineFuzzer::BaselineFuzzer(const EngineConfig& engine_config, TargetFactory factory,
                               const Spec& spec, const BaselineConfig& config)
    : engine_config_(engine_config),
      spec_(spec),
      config_(config),
      corpus_(&spec_),
      mutator_(spec, config.seed ^ 0xbabe, /*dictionary=*/false),
      rng_(config.seed) {
  vm_ = std::make_unique<Vm>(engine_config_.vm);
  vm_->AttachClock(&clock_, &engine_config_.cost);
  if (config_.kind == BaselineKind::kAflppDesock) {
    // desock coalesces the byte stream: boundaries are not preserved.
    NetEmu::Config net_cfg;
    net_cfg.preserve_packet_boundaries = false;
    net_ = NetEmu(net_cfg);
  }
  net_.AttachClock(&clock_, &engine_config_.cost);
  target_ = factory();
  target_info_ = target_->info();
  if (config_.kind == BaselineKind::kAflppDesock && !target_info_.desock_compatible) {
    supported_ = false;
  }
}

void BaselineFuzzer::AddSeed(Program seed) {
  seed.StripSnapshotMarkers();
  seed.Repair(spec_);
  if (seed.ops.empty()) {
    return;
  }
  const size_t packets = seed.PacketCount(spec_);
  corpus_.Add(std::move(seed), 0, packets, 0.0);
}

// Extracts the AFLNet-style state sequence from the target's responses:
// for text protocols the leading status digits, for binary protocols the
// first byte of each response.
bool BaselineFuzzer::AflnetStateFeedback() {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int conn : exec_conns_) {
    if (!net_.ValidConn(conn)) {
      continue;
    }
    for (PacketQueue::Packet resp : net_.Sent(conn)) {
      uint32_t code = 0;
      if (resp.size() >= 3 && resp[0] >= '0' && resp[0] <= '9') {
        code = static_cast<uint32_t>((resp[0] - '0') * 100 + (resp[1] - '0') * 10 +
                                     (resp[2] - '0'));
      } else if (!resp.empty()) {
        code = 1000u + resp[0];
      }
      h = Fnv1a64(&code, sizeof(code), h);
    }
  }
  return seen_state_sequences_.insert(h).second;
}

ExecResult BaselineFuzzer::RunOneExec(const Program& input, CoverageMap& cov) {
  ExecResult result;
  const uint64_t t0 = clock_.now_ns();
  const CostModel& cost = engine_config_.cost;
  const bool no_state = config_.kind == BaselineKind::kAflnetNoState;

  // Persistent-server noise (paper section 1): "background threads in the
  // service can randomly get scheduled independently of the test cases [...]
  // These seemingly random code paths still affect the fuzzer's coverage and
  // introduce pointless inputs into the queue." The AFLNet family fuzzes a
  // live server over real sockets and inherits this noise; snapshot fuzzing
  // does not.
  if (config_.kind == BaselineKind::kAflnet || config_.kind == BaselineKind::kAflnetNoState ||
      config_.kind == BaselineKind::kAflnwe) {
    if (noise_rng_.Chance(1, 8)) {
      cov.OnNoiseEdge(60000 + static_cast<uint32_t>(noise_rng_.Below(512)));
    }
  }

  // Process restart (or not, for the no-state variant).
  execs_since_restart_++;
  const bool restart = !no_state || execs_since_restart_ >= config_.no_state_restart_period;
  if (restart) {
    execs_since_restart_ = 0;
    vm_->RestoreRoot();
    net_.Restore(boot_net_state_);
    clock_.Advance(cost.process_spawn_ns + target_info_.startup_ns);
    if (config_.kind == BaselineKind::kAflnet || config_.kind == BaselineKind::kAflnetNoState ||
        config_.kind == BaselineKind::kAflnwe) {
      clock_.Advance(cost.server_ready_poll_ns);
    }
    if (config_.kind == BaselineKind::kAflppDesock || config_.kind == BaselineKind::kIjon) {
      clock_.Advance(cost.forkserver_reset_ns);
    }
  } else {
    // Only the user-written cleanup script runs: the disk is rolled back,
    // the process (and its leaks) survive.
    vm_->disk().RestoreFromRoot(vm_->root().disk());
  }
  if (config_.kind == BaselineKind::kAflnet || config_.kind == BaselineKind::kAflnetNoState) {
    clock_.Advance(target_info_.aflnet_extra_ns);  // cleanup script + waits
  }
  if (config_.kind == BaselineKind::kAflnwe) {
    clock_.Advance(target_info_.aflnet_extra_ns / 2);
  }

  GuestContext ctx(*vm_, net_, cov, clock_, cost);
  ctx.set_asan(engine_config_.asan);
  ctx.ReseedRng(engine_config_.seed);

  exec_conns_.clear();
  const bool desock = config_.kind == BaselineKind::kAflppDesock;

  if (desock) {
    // One implicit connection; the entire input is a single stdin stream.
    int conn = -1;
    if (target_info_.is_client) {
      GuardedStep(*target_, ctx);
      if (!net_.ClientConnections().empty()) {
        conn = net_.ClientConnections()[0];
      }
    } else {
      conn = net_.QueueConnection(target_info_.port);
    }
    if (conn >= 0) {
      Bytes stream;
      for (const Op& op : input.ops) {
        if (!op.is_snapshot() && op.node_type < spec_.node_type_count() &&
            spec_.node_type(op.node_type).semantic == NodeSemantic::kPacket) {
          Append(stream, op.data);
        }
      }
      clock_.Advance(cost.real_syscall_ns + cost.per_byte_ns * stream.size());
      net_.DeliverPacket(conn, stream);
      net_.PeerClose(conn);  // stdin EOF
      exec_conns_.push_back(conn);
      result.packets_delivered = 1;
      GuardedStep(*target_, ctx);
    }
  } else {
    // Real sockets: each op pays syscall/connect costs.
    std::vector<int> value_conns;
    size_t client_conns_used = 0;
    for (const Op& op : input.ops) {
      if (ctx.crash().crashed) {
        break;
      }
      if (op.is_snapshot() || op.node_type >= spec_.node_type_count()) {
        continue;
      }
      switch (spec_.node_type(op.node_type).semantic) {
        case NodeSemantic::kConnection: {
          int conn = -1;
          if (target_info_.is_client) {
            GuardedStep(*target_, ctx);
            const auto& clients = net_.ClientConnections();
            if (client_conns_used < clients.size()) {
              conn = clients[client_conns_used++];
            }
          } else if (target_info_.transport == SockKind::kDgram) {
            conn = net_.FindDgramSocket(target_info_.port);
          } else {
            conn = net_.QueueConnection(target_info_.port);
            clock_.Advance(cost.tcp_connect_ns);
          }
          value_conns.push_back(conn);
          if (conn >= 0) {
            exec_conns_.push_back(conn);
          }
          GuardedStep(*target_, ctx);
          break;
        }
        case NodeSemantic::kPacket: {
          const int conn = op.args.empty() || op.args[0] >= value_conns.size()
                               ? (value_conns.empty() ? -1 : value_conns.back())
                               : value_conns[op.args[0]];
          if (net_.ValidConn(conn)) {
            clock_.Advance(2 * cost.real_syscall_ns + cost.per_byte_ns * op.data.size() +
                           config_.per_byte_extra_ns * op.data.size());
            if (config_.kind == BaselineKind::kAflnet ||
                config_.kind == BaselineKind::kAflnetNoState) {
              // AFLNet waits a fixed receive timeout after each region.
              clock_.Advance(cost.aflnet_inter_packet_gap_ns);
            }
            net_.DeliverPacket(conn, op.data);
            result.packets_delivered++;
            GuardedStep(*target_, ctx);
          }
          break;
        }
        case NodeSemantic::kClose: {
          const int conn = op.args.empty() || op.args[0] >= value_conns.size()
                               ? -1
                               : value_conns[op.args[0]];
          if (net_.ValidConn(conn)) {
            net_.PeerClose(conn);
            GuardedStep(*target_, ctx);
          }
          break;
        }
        case NodeSemantic::kCustom:
          GuardedStep(*target_, ctx);
          break;
        case NodeSemantic::kFault:
          // Baselines model stock AFLNet/desock setups, which have no fault
          // injection; their mutators never emit fault ops, and any riding
          // along in a shared corpus are inert here.
          break;
      }
    }
    // Tear down this test case's connections so a persistent server does not
    // leak sockets across executions.
    for (int conn : exec_conns_) {
      if (net_.ValidConn(conn)) {
        net_.PeerClose(conn);
      }
    }
    GuardedStep(*target_, ctx);
  }

  result.crash = ctx.crash();
  result.ijon_max = ctx.IjonValue(0);
  result.vtime_ns = clock_.now_ns() - t0;
  return result;
}

CampaignResult BaselineFuzzer::Run(const CampaignLimits& limits) {
  CampaignResult result;
  if (!supported_) {
    return result;
  }
  // Per-thread delta so concurrent campaigns report only their own misses.
  const uint64_t soft_at_start = GetThreadContractCounters().soft_failures;
  // Boot once to capture the pristine post-startup state used as the
  // "freshly restarted process" image.
  {
    CoverageMap boot_cov;
    GuestContext ctx(*vm_, net_, boot_cov, clock_, engine_config_.cost);
    ctx.set_asan(engine_config_.asan);
    ctx.ReseedRng(engine_config_.seed);
    target_->Init(ctx);
    GuardedStep(*target_, ctx);
    boot_net_state_ = net_.state();
    vm_->TakeRootSnapshot();
  }

  const uint64_t vtime_start = clock_.now_ns();
  const auto wall_start = std::chrono::steady_clock::now();
  auto vnow = [&] { return static_cast<double>(clock_.now_ns() - vtime_start) * 1e-9; };
  auto out_of_budget = [&] {
    if (vnow() >= limits.vtime_seconds || result.execs >= limits.max_execs) {
      return true;
    }
    if (limits.stop_on_crash && !result.crashes.empty() &&
        (limits.stop_on_crash_id == 0 || result.FoundCrash(limits.stop_on_crash_id))) {
      return true;
    }
    if (limits.ijon_goal != 0 && result.ijon_best >= limits.ijon_goal) {
      return true;
    }
    const auto wall = std::chrono::steady_clock::now() - wall_start;
    result.wall_capped = std::chrono::duration<double>(wall).count() >= limits.wall_seconds;
    return result.wall_capped;
  };

  auto run_one = [&](const Program& input) {
    trace_.Reset();
    const ExecResult exec = RunOneExec(input, trace_);
    result.execs++;
    last_exec_vtime_ = exec.vtime_ns;
    const bool ijon_new =
        config_.kind == BaselineKind::kIjon && exec.ijon_max > result.ijon_best;
    if (exec.ijon_max > result.ijon_best) {
      result.ijon_best = exec.ijon_max;
      if (limits.ijon_goal != 0 && result.ijon_best >= limits.ijon_goal &&
          result.ijon_goal_vsec < 0) {
        result.ijon_goal_vsec = vnow();
      }
    }
    if (exec.crash.crashed) {
      CrashRecord& rec = result.crashes[exec.crash.crash_id];
      rec.count++;
      if (rec.count == 1) {
        rec.kind = exec.crash.kind;
        rec.first_seen_vsec = vnow();
        rec.reproducer = input;
        if (result.first_crash_vsec < 0) {
          result.first_crash_vsec = vnow();
        }
      }
    }
    bool interesting = global_cov_.MergeAndCheckNew(trace_) || ijon_new;
    if ((config_.kind == BaselineKind::kAflnet) && AflnetStateFeedback()) {
      interesting = true;  // new state sequence joins the queue
    }
    return interesting && !exec.crash.crashed;
  };
  auto record_coverage = [&] {
    result.coverage_over_time.Record(vnow(), static_cast<double>(global_cov_.SiteCount()));
  };

  for (size_t i = 0; i < corpus_.size() && !out_of_budget(); i++) {
    run_one(corpus_.entry(i).program);
    corpus_.SetVtime(i, last_exec_vtime_);
  }
  record_coverage();

  while (!out_of_budget() && !corpus_.empty()) {
    CorpusEntry& entry = corpus_.Pick(rng_);
    const Program base = entry.program;
    const std::vector<const Program*> donors = corpus_.Donors();
    for (uint64_t iter = 0; iter < 32 && !out_of_budget(); iter++) {
      Program mutated = base;
      mutator_.Mutate(mutated, donors, 0);
      if (run_one(mutated)) {
        const size_t packets = mutated.PacketCount(spec_);
        corpus_.Add(std::move(mutated), last_exec_vtime_, packets, vnow());
        record_coverage();
      }
    }
  }

  record_coverage();
  result.vtime_seconds = vnow();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  result.execs_per_vsecond =
      result.vtime_seconds > 0 ? static_cast<double>(result.execs) / result.vtime_seconds : 0;
  result.branch_coverage = global_cov_.SiteCount();
  result.edge_coverage = global_cov_.EdgeCount();
  result.corpus_size = corpus_.size();
  result.contract_soft_failures = GetThreadContractCounters().soft_failures - soft_at_start;
  return result;
}

}  // namespace nyx
