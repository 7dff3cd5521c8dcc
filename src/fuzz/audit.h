// Cross-restore determinism auditor: the dynamic half of the
// snapshot-completeness analysis (DESIGN.md §10).
//
// With NYX_AUDIT=1 the engine executes every program twice from the same
// snapshot (root or incremental — whichever the first execution used) and
// compares end-state fingerprints: a page-granular hash of guest memory,
// every emulated device's register file, the disk, the engine's host state
// (NetEmu's socket table and the interpreter's connection map, by value),
// the per-exec RNG, the coverage maps and the observable execution result.
// Any state a restore misses keeps evolving across executions, so the
// replay diverges — the classic run-twice oracle, but with attribution: the
// auditor names the diverging page's guest region or the diverging
// host-state part, or reports UNREGISTERED when the divergence is visible
// only through behaviour (coverage/result) while all compared state
// matches — the signature of mutable host state that no restore brings
// back.
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
#include "src/netemu/netemu.h"

namespace nyx {

// The bytecode interpreter's state (NyxEngine): what a restore brings back
// besides the VM and NetEmu.
struct InterpState {
  std::vector<int> value_conns;    // value id -> connection handle
  size_t connection_ops_seen = 0;  // connection ops executed so far
  bool operator==(const InterpState&) const = default;
};

// End-of-execution state summary, captured by NyxEngine after each audited
// run. Guest memory, devices and disk as hashes, host state by value, plus
// the site bitmap for the subset check.
struct StateFingerprint {
  std::vector<uint64_t> page_hashes;  // one FNV per guest page
  std::vector<std::pair<std::string, uint64_t>> device_hashes;
  uint64_t disk_hash = 0;
  NetEmu::State net;       // owner "netemu.socket_table"
  InterpState interp;      // owner "engine.interp"
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

  // Owner of a divergence that no compared state explains, and of a guest
  // page outside every named region.
  static constexpr const char* kUnregistered = "UNREGISTERED";

  struct Divergence {
    // What diverged: "guest-page", "device", "disk", "host-state", "rng",
    // "coverage", "result", "ephemeral".
    std::string source;
    // Owning guest region, device or host-state part, or kUnregistered.
    std::string owner;
    uint64_t page = 0;  // guest page index for guest-page divergences
  };

  struct Stats {
    uint64_t programs_audited = 0;   // programs double-executed
    uint64_t cross_audits = 0;       // incremental-vs-full comparisons
    uint64_t pages_audited = 0;      // page hash comparisons performed
    uint64_t divergences = 0;        // total divergence records
  };

  // Names a guest-physical range so a diverging page is attributed to it.
  // Regions may not overlap. The engine names its layout at Boot.
  void AddGuestRegion(std::string name, uint64_t base, uint64_t size);
  // Name of the region containing guest byte `offset`, or kUnregistered.
  const std::string& GuestOwner(uint64_t offset) const;

  // Replay comparison: both executions took the identical path, so every
  // component must match bit-for-bit.
  std::vector<Divergence> CompareReplay(const StateFingerprint& a, const StateFingerprint& b);

  // Cross-restore comparison: `full` executed the whole program from the
  // root snapshot, `resumed` restored the incremental snapshot and executed
  // only the suffix. End state must match; coverage of the resumed run must
  // be a subset of the full run's; packet/vtime totals legitimately differ.
  std::vector<Divergence> CompareCrossRestore(const StateFingerprint& full,
                                              const StateFingerprint& resumed);

  // Records an "ephemeral" divergence for each per-exec invariant that
  // fails between executions: the thread's fault guard must be disarmed
  // ("guest.fault_jmp", FaultGuardIdle()) and no phase scope may straddle
  // the boundary ("telemetry.phase_timers", telemetry::PhaseDepth() == 0).
  void CheckEphemerals(bool fault_guard_idle, bool phases_closed);

  const Stats& stats() const { return stats_; }
  const std::vector<Divergence>& divergences() const { return log_; }

 private:
  struct GuestRegion {
    std::string name;
    uint64_t base = 0;
    uint64_t size = 0;
  };

  void CompareState(const StateFingerprint& a, const StateFingerprint& b,
                    std::vector<Divergence>& out);
  void Note(std::vector<Divergence>& out, std::string source, std::string owner,
            uint64_t page = 0);

  std::vector<GuestRegion> regions_;
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
