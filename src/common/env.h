// Centralized environment-variable access.
//
// Every knob the system reads from the environment goes through this file:
// raw getenv calls live only in env.cc, so the full set of tunables is
// auditable in one place and the nyx_lint `raw-env` rule can ban scattered
// call sites. Scattered getenv is how hidden per-host nondeterminism creeps
// into campaigns — a knob read deep inside a worker is invisible to the
// person diffing two "identical" runs.
//
// Every knob is named at the start of a line of the list below; the nyx_lint
// `knob-doc` rule checks that the list and the NYX_... literals read through
// these accessors in src/ and bench/ name the same knobs.
//
// Knobs (all optional):
//   NYX_RUNS        repeat count for bench campaigns (positive integer)
//   NYX_VTIME       virtual-time budget per campaign in seconds (positive)
//   NYX_JOBS        worker-pool width for the parallel harness (positive)
//   NYX_WALL        wall-clock budget for table1/table4 (positive seconds)
//   NYX_LOCK_DEBUG  enable the lock-hierarchy analyzer (flag)
//   NYX_AUDIT       enable the snapshot divergence auditor (flag): every
//                   execution runs twice and end states are compared
//   NYX_BENCH_OUT   output path override for BENCH_*.json writers
//   NYX_FIG5_TARGETS / NYX_FIG6_VM_MB / NYX_MARIO_LEVELS  bench-local knobs
//   NYX_TELEMETRY   enable the phase profiler (flag; src/common/telemetry.h)
//   NYX_PHASE_OUT   output path override for BENCH_phase_breakdown.json
//                   (table3 / fig6 phase-breakdown passes)

#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstddef>
#include <string>

namespace nyx {
namespace env {

// ---- Generic typed accessors ----

// True when `name` is set to a non-empty value other than "0".
bool Flag(const char* name);
// Like Flag, but `def` when unset or empty (for knobs that can override a
// build-type default in both directions, e.g. NYX_LOCK_DEBUG=0).
bool FlagOr(const char* name, bool def);
// Positive-integer knob; `def` when unset, empty or not a positive number.
size_t SizeOr(const char* name, size_t def);
// Positive-double knob; `def` when unset, empty or not positive.
double DoubleOr(const char* name, double def);
// String knob; `def` when unset or empty.
std::string StringOr(const char* name, const std::string& def);

// ---- Named accessors for the well-known knobs ----

size_t Runs(size_t def);       // NYX_RUNS
double Vtime(double def);      // NYX_VTIME
size_t Jobs(size_t def);       // NYX_JOBS
double Wall(double def);       // NYX_WALL
bool LockDebug(bool def);      // NYX_LOCK_DEBUG (overrides `def` both ways)
bool Audit();                  // NYX_AUDIT

}  // namespace env
}  // namespace nyx

#endif  // SRC_COMMON_ENV_H_
