// The Nyx-Net execution engine (paper Figure 3, sections 3.2-3.4, 4.3).
//
// One engine owns one VM running one target. Boot() starts the target,
// runs it until it first blocks waiting for attack-surface input, and takes
// the root snapshot there — the automatic snapshot placement that selective
// emulation enables. Run() executes one bytecode input:
//
//   * ops are interpreted in order: connection ops queue connections,
//     packet ops deliver one packet and let the target run until it blocks,
//     close ops signal peer EOF;
//   * the snapshot marker op triggers creation of the incremental snapshot
//     (with the interpreter + netemu state riding along in the snapshot's
//     aux blob), and the engine records the ops-hash of the input prefix up
//     to and including the marker;
//   * if the next input shares that prefix, the engine restores the
//     incremental snapshot and resumes at the op after the marker — only
//     the suffix runs again.
//
// After the run the VM is left dirty; the next Run() restores as needed.

#ifndef SRC_FUZZ_ENGINE_H_
#define SRC_FUZZ_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/common/vclock.h"
#include "src/fuzz/audit.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/guest.h"
#include "src/netemu/netemu.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"
#include "src/vm/state_registry.h"
#include "src/vm/vm.h"

namespace nyx {

struct EngineConfig {
  VmConfig vm;
  CostModel cost;
  bool asan = false;
  // Deterministic layout/noise seed mixed with the input hash each run.
  uint64_t seed = 1;
  // Snapshot divergence auditing (NYX_AUDIT=1, src/fuzz/audit.h): every
  // execution runs twice (three times when it creates an incremental
  // snapshot) and end states are compared. Debug oracle — triples per-exec
  // virtual cost.
  bool audit = env::Audit();
};

struct ExecResult {
  CrashInfo crash;
  uint64_t vtime_ns = 0;  // virtual time consumed by this execution
  size_t packets_delivered = 0;
  bool used_incremental = false;
  bool created_incremental = false;
  uint64_t ijon_max = 0;  // slot-0 maximization feedback
};

class NyxEngine {
 public:
  NyxEngine(const EngineConfig& config, TargetFactory factory, const Spec& spec);

  // Boots the VM + target and takes the root snapshot at the first
  // blocked-on-input point. Must be called once before Run().
  void Boot();

  // Executes one input, filling `cov` with the trace.
  ExecResult Run(const Program& input, CoverageMap& cov);

  // Executes one input with the per-exec RNG seed pinned to `rng_hash`
  // instead of being derived from the input's own ops hash. Differential
  // probes (analyzer soundness checks, corpus trimming) rewrite programs,
  // and a rewritten program hashes differently — without the pin the runs
  // would differ in deterministic noise, not semantics. Use InputRngHash()
  // of the *original* program as the pin.
  ExecResult RunPinned(const Program& input, uint64_t rng_hash, CoverageMap& cov);

  // NYX_ANALYZE_CHECK differential oracle (DESIGN.md §14): executes
  // `original` and `rewritten` back-to-back from the root snapshot with the
  // RNG pinned to the original's hash, and compares guest-observable end
  // states: guest memory pages, device registers, disk, per-exec RNG end
  // state, coverage edges + sites, crash outcome, packets delivered, and
  // IJON feedback. Host-side aux state (registry entry hashes) is
  // deliberately excluded: eliding a trailing fault op leaves an
  // armed-but-never-consulted netemu queue entry behind, which no guest
  // read can observe — that is the analyzer's defined residue. Returns
  // false and fills `why` on any mismatch. Leaves no incremental snapshot
  // behind.
  bool CheckRewriteEquivalence(const Program& original, const Program& rewritten,
                               std::string* why = nullptr);

  // Discards the incremental snapshot (called when scheduling a new input).
  void DropIncremental();

  const TargetInfo& target_info() const { return target_info_; }
  VirtualClock& clock() { return clock_; }
  Vm& vm() { return *vm_; }
  NetEmu& net() { return net_; }
  const VmStats& vm_stats() const { return vm_->stats(); }
  uint64_t execs() const { return execs_; }
  // Responses the target sent during the last Run (for AFLNet-style state
  // machines and for tests).
  std::vector<Bytes> LastResponses() const;

  // Snapshot-state inventory: every piece of host-side state that must
  // survive a restore is registered here; the snapshot aux blob is built
  // from it (DESIGN.md §10).
  SnapshotStateRegistry& state_registry() { return state_registry_; }
  // Null unless EngineConfig.audit (NYX_AUDIT=1).
  DivergenceAuditor* auditor() { return auditor_.get(); }

 private:
  ExecResult RunInternal(const Program& input, CoverageMap& cov);
  StateFingerprint CaptureFingerprint(const CoverageMap& cov, const ExecResult& result);
  Bytes SerializeInterpState(uint32_t resume_op);
  void RestoreInterpState(const Bytes& aux);
  int ResolveConn(const Op& op) const;

  EngineConfig config_;
  const Spec& spec_;
  VirtualClock clock_;
  std::unique_ptr<Vm> vm_;
  NetEmu net_;
  std::unique_ptr<Target> target_;
  TargetInfo target_info_;
  bool booted_ = false;
  SnapshotStateRegistry state_registry_;
  std::unique_ptr<DivergenceAuditor> auditor_;
  uint64_t last_exec_rng_hash_ = 0;
  // When set, RunInternal seeds the per-exec RNG from this instead of the
  // input's ops hash (see RunPinned).
  std::optional<uint64_t> exec_rng_hash_override_;

  // Interpreter state (snapshot-managed via aux blobs).
  std::vector<int> value_conns_;  // value id -> connection handle
  uint32_t resume_op_ = 0;
  size_t connection_ops_seen_ = 0;

  // The incremental snapshot's resume point: it was captured after
  // executing ops [0, ops_hashed), the marker op last, whose hash was
  // `hash`. Unset when this engine holds no incremental to resume from.
  struct SnapshotLink {
    uint64_t hash;
    uint32_t ops_hashed;
  };
  std::optional<SnapshotLink> link_;
  uint64_t execs_ = 0;
};

// The RNG-seeding hash RunInternal derives from an input (snapshot-prefix
// hash xor full ops hash). Pass this for the original program to RunPinned
// when probing a rewritten variant.
uint64_t InputRngHash(const Program& input);

}  // namespace nyx

#endif  // SRC_FUZZ_ENGINE_H_
