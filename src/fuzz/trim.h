// Corpus trimming.
//
// afl-tmin-shaped minimizer for bytecode programs: repeatedly remove ops,
// keep a removal iff a re-execution reproduces the original's coverage
// fingerprint (edges, sites, crash outcome, IJON feedback). Each pass
// sweeps the ops in reverse order, and each probe removes a whole
// dependency cone — an op plus every op transitively using its outputs — so
// every probe is a Validate-clean program without Repair's
// semantics-changing rebinding.
//
// When the engine runs with NYX_AUDIT=1 the probes are audited executions,
// and TrimStats reports the divergence delta — a trimmed corpus is only
// accepted by `nyx-net trim` when that delta is zero (audit-clean oracle).

#ifndef SRC_FUZZ_TRIM_H_
#define SRC_FUZZ_TRIM_H_

#include <cstddef>
#include <cstdint>

#include "src/fuzz/engine.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {

struct TrimStats {
  size_t probe_execs = 0;  // engine executions spent
  size_t ops_before = 0;
  size_t ops_after = 0;
  size_t bytes_before = 0;  // serialized wire sizes
  size_t bytes_after = 0;
  // Auditor divergences recorded during trimming (0 unless the engine's
  // NYX_AUDIT replay oracle fired; always 0 when auditing is off).
  uint64_t audit_divergences = 0;
};

// Minimizes `input` against the coverage-fingerprint oracle. The returned
// program is Validate-clean whenever the input was, and always reproduces
// the coverage fingerprint of the input with its snapshot marker stripped.
Program TrimProgram(NyxEngine& engine, const Spec& spec, const Program& input,
                    TrimStats* stats);

}  // namespace nyx

#endif  // SRC_FUZZ_TRIM_H_
