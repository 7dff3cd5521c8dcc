// The Nyx-Net fuzzer: ties together the execution engine, corpus, mutators
// and snapshot placement policy.
//
// Scheduling shape (paper section 3.4): each time an input is scheduled, the
// policy decides whether and where to place the incremental snapshot; the
// fuzzer then runs a batch of mutations of the suffix against that snapshot
// ("reusing the snapshot as little as 50 times yields significant
// performance increases") before scheduling the next input and discarding
// the snapshot. About a quarter of an incremental batch mutates the whole
// input instead, which runs from the root; those execs run first, so the
// snapshot is captured once and serves every suffix exec after them.

#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/stats.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/mutator.h"
#include "src/fuzz/policy.h"

namespace nyx {

struct CrashRecord {
  std::string kind;
  uint64_t count = 0;
  double first_seen_vsec = 0.0;
  Program reproducer;
};

struct CampaignLimits {
  double vtime_seconds = 10.0;       // virtual-time budget
  uint64_t max_execs = UINT64_MAX;   // optional execution cap
  double wall_seconds = 120.0;       // hard real-time safety net
  bool stop_on_crash = false;
  uint64_t stop_on_crash_id = 0;     // with stop_on_crash: 0 = any crash
  uint64_t ijon_goal = 0;            // stop when slot-0 feedback reaches this
};

struct CampaignResult {
  uint64_t execs = 0;
  double vtime_seconds = 0.0;
  double execs_per_vsecond = 0.0;
  // Real seconds the campaign loop ran, from the start the wall cap counts
  // from (after boot, as for vtime_seconds) to the end: host speed, where
  // the fields above are the cost model's virtual time.
  double wall_seconds = 0.0;
  size_t branch_coverage = 0;
  size_t edge_coverage = 0;
  size_t corpus_size = 0;
  uint64_t incremental_creates = 0;
  uint64_t incremental_restores = 0;
  uint64_t root_restores = 0;
  uint64_t contract_soft_failures = 0;  // NYX_EXPECT misses (common/check.h)
  // Snapshot divergence audit (NYX_AUDIT=1, src/fuzz/audit.h); zero unless
  // the auditor is enabled.
  uint64_t pages_audited = 0;
  uint64_t audit_divergences = 0;
  // Deterministic fault injection (FuzzerConfig::fault_injection): total
  // fault applications and input bytes they dropped (src/netemu/netemu.h).
  uint64_t faults_injected = 0;
  uint64_t faulted_bytes = 0;
  // Programs the corpus rejected as equal to a queued entry
  // (Corpus::corpus_dupes).
  uint64_t corpus_dupes = 0;
  // Dirty tracking of a NyxFuzzer campaign's VM (src/vm/guest_memory.h):
  // first-write traps (DirtyTracker::total_marks), protection-change
  // syscalls, and pages pinned open at the end. A steady-state loop that
  // still traps shows up here as traps growing with execs. Pinned pages are
  // copied on every restore and capture, so pages_restored/pages_captured
  // per exec show what the pin set costs.
  uint64_t dirty_traps = 0;
  uint64_t protect_calls = 0;
  uint64_t pinned_pages = 0;
  uint64_t pages_restored = 0;
  uint64_t pages_captured = 0;
  // Pages the root snapshot stores (RootSnapshot::stored_pages): the
  // non-zero pages boot populated, however large the guest.
  uint64_t root_pages = 0;
  // CampaignLimits::wall_seconds ended the run before its other limits did,
  // so the virtual-time results depend on host speed.
  bool wall_capped = false;
  TimeSeries coverage_over_time;  // (vtime seconds, branch coverage)
  TimeSeries execs_over_time;     // (vtime seconds, cumulative execs)
  std::map<uint32_t, CrashRecord> crashes;
  double first_crash_vsec = -1.0;
  uint64_t ijon_best = 0;
  double ijon_goal_vsec = -1.0;  // virtual time the ijon goal was reached

  bool FoundCrash(uint32_t crash_id) const { return crashes.count(crash_id) != 0; }
};

struct FuzzerConfig {
  PolicyMode policy = PolicyMode::kNone;
  uint64_t iterations_per_schedule = kIterationsPerSchedule;
  uint64_t seed = 1;
  // Let the mutator insert/mutate/delete NodeSemantic::kFault ops so
  // campaigns explore target error-handling paths ("No Peer, no Cry").
  bool fault_injection = false;
  // Unread; bench/wallclock/wallclock.cc still assigns it. Delete it once
  // that runner stops.
  bool analyze_check = false;
};

class NyxFuzzer {
 public:
  NyxFuzzer(const EngineConfig& engine_config, TargetFactory factory, const Spec& spec,
            const FuzzerConfig& config);

  // Seeds must be added before Run(). Invalid seeds are repaired.
  void AddSeed(Program seed);

  CampaignResult Run(const CampaignLimits& limits);

  NyxEngine& engine() { return engine_; }
  Corpus& corpus() { return corpus_; }

 private:
  // Executes one input, folds in coverage/crash bookkeeping. Returns whether
  // it produced new coverage.
  bool RunOne(const Program& input, CampaignResult& result);

  const Spec& spec_;
  FuzzerConfig config_;
  NyxEngine engine_;
  Corpus corpus_;
  Mutator mutator_;
  SnapshotPolicy policy_;
  GlobalCoverage global_cov_;
  CoverageMap trace_;
  Rng rng_;
  uint64_t last_exec_vtime_ = 0;
};

}  // namespace nyx

#endif  // SRC_FUZZ_FUZZER_H_
