#include "src/fuzz/fuzzer.h"

#include <chrono>

#include "src/common/check.h"
#include "src/common/telemetry.h"

namespace nyx {

NyxFuzzer::NyxFuzzer(const EngineConfig& engine_config, TargetFactory factory, const Spec& spec,
                     const FuzzerConfig& config)
    : spec_(spec),
      config_(config),
      engine_(engine_config, factory, spec),
      corpus_(&spec_),
      mutator_(spec, config.seed ^ 0x6d757461746f72ull, /*dictionary=*/true,
               config.fault_injection),
      policy_(config.policy, config.seed ^ 0x706f6c696379ull),
      rng_(config.seed) {}

void NyxFuzzer::AddSeed(Program seed) {
  seed.StripSnapshotMarkers();
  seed.Repair(spec_);
  if (seed.ops.empty()) {
    return;
  }
  const size_t packets = seed.PacketOpIndices(spec_).size();
  corpus_.Add(std::move(seed), 0, packets, 0.0);
}

bool NyxFuzzer::RunOne(const Program& input, CampaignResult& result) {
  trace_.Reset();
  const ExecResult exec = engine_.Run(input, trace_);
  result.execs++;
  last_exec_vtime_ = exec.vtime_ns;
  const bool ijon_new = exec.ijon_max > result.ijon_best;
  if (ijon_new) {
    result.ijon_best = exec.ijon_max;
  }

  if (exec.crash.crashed) {
    CrashRecord& rec = result.crashes[exec.crash.crash_id];
    rec.count++;
    if (rec.count == 1) {
      rec.kind = exec.crash.kind;
      rec.first_seen_vsec = engine_.clock().now_seconds();
      rec.reproducer = input;
      rec.reproducer.StripSnapshotMarkers();
      if (result.first_crash_vsec < 0) {
        result.first_crash_vsec = rec.first_seen_vsec;
      }
    }
  }

  bool merged_new;
  {
    telemetry::ScopedPhase phase(telemetry::Phase::kCoverageMerge);
    merged_new = global_cov_.MergeAndCheckNew(trace_);
  }
  const bool new_bits = merged_new || ijon_new;
  return new_bits && !exec.crash.crashed;
}

CampaignResult NyxFuzzer::Run(const CampaignLimits& limits) {
  CampaignResult result;
  // Per-thread delta, not the process-global counter: concurrent campaigns
  // (harness/parallel.h) must each report only their own NYX_EXPECT misses.
  const uint64_t soft_at_start = GetThreadContractCounters().soft_failures;
  engine_.Boot();
  const uint64_t vtime_start = engine_.clock().now_ns();
  const auto wall_start = std::chrono::steady_clock::now();
  uint64_t prev_ijon_best = 0;

  auto vnow = [&] {
    return static_cast<double>(engine_.clock().now_ns() - vtime_start) * 1e-9;
  };
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
  auto record_coverage = [&] {
    const double t = vnow();
    result.coverage_over_time.Record(t, static_cast<double>(global_cov_.SiteCount()));
    result.execs_over_time.Record(t, static_cast<double>(result.execs));
  };

  // Dry-run the seeds.
  for (size_t i = 0; i < corpus_.size() && !out_of_budget(); i++) {
    if (RunOne(corpus_.entry(i).program, result)) {
      record_coverage();
    }
    corpus_.SetVtime(i, last_exec_vtime_);
  }
  record_coverage();

  bool found_since_last_schedule = true;
  while (!out_of_budget()) {
    if (corpus_.empty()) {
      // No seeds at all: synthesize a minimal one-connection input.
      Program p;
      Op con;
      con.node_type = static_cast<uint8_t>(
          spec_.NodesWithSemantic(NodeSemantic::kConnection).front());
      p.ops.push_back(con);
      Op pkt;
      pkt.node_type =
          static_cast<uint8_t>(spec_.NodesWithSemantic(NodeSemantic::kPacket).front());
      pkt.args.push_back(0);
      pkt.data = ToBytes("\r\n");
      p.ops.push_back(pkt);
      corpus_.Add(std::move(p), 0, 1, vnow());
    }

    // Schedule an input and decide snapshot placement for this batch.
    CorpusEntry& entry = corpus_.Pick(rng_);
    const PlacementDecision decision =
        policy_.Decide(entry.packet_count, entry.cursor, found_since_last_schedule);
    found_since_last_schedule = false;
    engine_.DropIncremental();

    const auto base_packets = entry.program.PacketOpIndices(spec_);
    size_t first_mutable_op = 0;
    if (decision.use_incremental && decision.packet_index < base_packets.size()) {
      first_mutable_op = base_packets[decision.packet_index] + 1;
    }
    // Pin the donor list for this batch (Add() may reallocate).
    const std::vector<const Program*> donors = corpus_.Donors();
    const Program base = entry.program;
    // One mutation buffer per schedule: assigning `base` to it reuses each
    // op's args and data capacity instead of allocating a fresh program.
    Program mutated;
    // Mostly mutate the suffix so the incremental snapshot stays reusable;
    // about one exec in four mutates the whole input, which carries no
    // marker and runs from the root (a prefix change would invalidate the
    // snapshot anyway). A root restore drops the incremental, so the
    // full-range execs all run first: the first suffix exec after them
    // captures the prefix and every later one resumes from it. The flags
    // are drawn up front, one 1-in-4 draw per iteration, so a schedule keeps
    // its count of each kind.
    uint64_t full_range_execs = 0;
    if (decision.use_incremental) {
      for (uint64_t i = 0; i < config_.iterations_per_schedule; i++) {
        full_range_execs += rng_.Chance(1, 4) ? 1 : 0;
      }
    }

    for (uint64_t iter = 0; iter < config_.iterations_per_schedule && !out_of_budget(); iter++) {
      const bool full_range = iter < full_range_execs && first_mutable_op > 0;
      mutated = base;
      {
        telemetry::ScopedPhase phase(telemetry::Phase::kMutate);
        mutator_.Mutate(mutated, donors, full_range ? 0 : first_mutable_op);
        if (decision.use_incremental && !full_range) {
          mutated.InsertSnapshotAfterPacket(spec_, decision.packet_index);
        }
      }
      const bool interesting = RunOne(mutated, result);
      if (interesting) {
        found_since_last_schedule = true;
        mutated.StripSnapshotMarkers();
        const size_t packets = mutated.PacketOpIndices(spec_).size();
        corpus_.Add(std::move(mutated), last_exec_vtime_, packets, vnow());
        record_coverage();
      }
      if (result.ijon_best > prev_ijon_best) {
        prev_ijon_best = result.ijon_best;
        if (result.ijon_best >= limits.ijon_goal && limits.ijon_goal != 0 &&
            result.ijon_goal_vsec < 0) {
          result.ijon_goal_vsec = vnow();
        }
        found_since_last_schedule = true;
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
  result.incremental_creates = engine_.vm_stats().incremental_creates;
  result.incremental_restores = engine_.vm_stats().incremental_restores;
  result.root_restores = engine_.vm_stats().root_restores;
  result.contract_soft_failures = GetThreadContractCounters().soft_failures - soft_at_start;
  result.faults_injected = engine_.net().faults_injected();
  result.faulted_bytes = engine_.net().faulted_bytes();
  result.corpus_dupes = corpus_.corpus_dupes();
  const GuestMemory& mem = engine_.vm().mem();
  result.dirty_traps = mem.tracker().total_marks();
  result.protect_calls = mem.protect_calls();
  result.pinned_pages = mem.pinned_pages();
  result.pages_restored = engine_.vm_stats().pages_restored;
  result.pages_captured = engine_.vm_stats().pages_captured;
  result.root_pages = engine_.vm().root().stored_pages();
  if (engine_.auditor() != nullptr) {
    result.pages_audited = engine_.auditor()->stats().pages_audited;
    result.audit_divergences = engine_.auditor()->stats().divergences;
  }
  if (result.ijon_goal_vsec < 0 && limits.ijon_goal != 0 &&
      result.ijon_best >= limits.ijon_goal) {
    result.ijon_goal_vsec = result.vtime_seconds;
  }
  return result;
}

}  // namespace nyx
