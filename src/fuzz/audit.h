// Cross-restore determinism auditor: the dynamic half of the
// snapshot-completeness analysis (DESIGN.md §10).
//
// With NYX_AUDIT=1 the engine executes every program twice from the same
// snapshot (root or incremental — whichever the first execution used) and
// compares end-state fingerprints: a page-granular hash of guest memory,
// every emulated device's register file, the disk, every registered
// host-state entry (src/vm/state_registry.h), the per-exec RNG, the
// coverage maps and the observable execution result. Any state a restore
// misses keeps evolving across executions, so the replay diverges — the
// classic run-twice oracle, but with attribution: the auditor bisects to
// the diverging page or entry and names the owning registration, or reports
// UNREGISTERED when the divergence is visible only through behaviour
// (coverage/result) while all registered state matches — the signature of
// mutable host state that escaped the registry.
//
// When the first execution ran from the root snapshot and created an
// incremental snapshot, a third execution resumes from that incremental
// snapshot and its end state is compared too ("cross-restore"): restoring
// the snapshot and executing the suffix must land exactly where executing
// the whole program did. This directly validates that CreateIncremental +
// RestoreIncremental is equivalent to re-execution — the oracle changes to
// dirty tracking and the snapshot pair are validated against.
//
// The auditor is a debug oracle: it triples per-exec cost and is compiled
// in always but constructed only when EngineConfig.audit is set.

#ifndef SRC_FUZZ_AUDIT_H_
#define SRC_FUZZ_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/telemetry.h"
#include "src/vm/state_registry.h"

namespace nyx {

// End-of-execution state summary, captured by NyxEngine after each audited
// run. Hashes only (plus the site bitmap for the subset check) — the
// auditor never needs the full state, just enough to attribute a mismatch.
struct StateFingerprint {
  std::vector<uint64_t> page_hashes;  // one FNV per guest page
  std::vector<std::pair<std::string, uint64_t>> device_hashes;
  uint64_t disk_hash = 0;
  std::vector<std::pair<std::string, uint64_t>> host_hashes;  // registry entries
  uint64_t rng_hash = 0;   // per-exec RNG end state
  uint64_t edge_hash = 0;  // coverage edge/hitcount map
  Bytes sites;             // site bitmap (for equality and subset checks)
  // Observable result of the execution.
  bool crashed = false;
  uint32_t crash_id = 0;
  uint64_t packets_delivered = 0;
  uint64_t ijon_max = 0;
};

class DivergenceAuditor {
 public:
  DivergenceAuditor();

  struct Divergence {
    // What diverged: "guest-page", "device", "disk", "host-state", "rng",
    // "coverage", "result", "ephemeral".
    std::string source;
    // Owning registration or guest-region name, or
    // SnapshotStateRegistry::kUnregistered.
    std::string owner;
    uint64_t page = 0;  // guest page index for guest-page divergences
  };

  struct Stats {
    uint64_t programs_audited = 0;   // programs double-executed
    uint64_t cross_audits = 0;       // incremental-vs-full comparisons
    uint64_t pages_audited = 0;      // page hash comparisons performed
    uint64_t divergences = 0;        // total divergence records
  };

  // Replay comparison: both executions took the identical path, so every
  // component must match bit-for-bit.
  std::vector<Divergence> CompareReplay(const StateFingerprint& a, const StateFingerprint& b,
                                        const SnapshotStateRegistry& registry);

  // Cross-restore comparison: `full` executed the whole program from the
  // root snapshot, `resumed` restored the incremental snapshot and executed
  // only the suffix. End state must match; coverage of the resumed run must
  // be a subset of the full run's; packet/vtime totals legitimately differ.
  std::vector<Divergence> CompareCrossRestore(const StateFingerprint& full,
                                              const StateFingerprint& resumed,
                                              const SnapshotStateRegistry& registry);

  // Records ephemeral-invariant failures (SnapshotStateRegistry::
  // CheckEphemeral output: state declared per-exec that did not return to
  // its idle state between executions).
  void ReportEphemeralFailures(const std::vector<std::string>& failed);

  const Stats& stats() const { return stats_; }
  const std::vector<Divergence>& divergences() const { return log_; }

 private:
  void CompareState(const StateFingerprint& a, const StateFingerprint& b,
                    const SnapshotStateRegistry& registry, std::vector<Divergence>& out);
  void Note(std::vector<Divergence>& out, std::string source, std::string owner,
            uint64_t page = 0);

  Stats stats_;
  std::vector<Divergence> log_;  // every divergence ever recorded (tests)
  const char* comparing_ = "";   // which comparison is running (log detail)
  // Global-registry mirrors of the Stats counters (resolved once in the
  // constructor), so audited runs show up in metrics.json process dumps.
  telemetry::Counter* pages_counter_;
  telemetry::Counter* divergences_counter_;
  telemetry::Counter* programs_counter_;
};

}  // namespace nyx

#endif  // SRC_FUZZ_AUDIT_H_
