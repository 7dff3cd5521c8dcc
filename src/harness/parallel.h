// Parallel campaign engine (ROADMAP: "parallel" north star).
//
// Campaign fan-out: independent (seed × configuration) campaigns spread over
// a worker pool. Every campaign owns its Vm, RNG and virtual clock and shares
// nothing with its siblings, so results are bit-identical to a serial loop
// regardless of NYX_JOBS. This is what RepeatCampaign and the bench drivers
// use.
//
// Thread-count knob: NYX_JOBS (default: hardware concurrency). NYX_JOBS=1
// runs everything inline on the calling thread.

#ifndef SRC_HARNESS_PARALLEL_H_
#define SRC_HARNESS_PARALLEL_H_

#include <functional>
#include <vector>

#include "src/harness/campaign.h"

namespace nyx {

// Worker count from the NYX_JOBS environment knob (documented in
// EXPERIMENTS.md next to NYX_RUNS / NYX_VTIME). Defaults to hardware
// concurrency; never returns 0.
size_t EvalJobs();

// Runs body(0) .. body(n-1), each exactly once, on up to `jobs` threads.
// With jobs <= 1 or n <= 1 the bodies run inline on the calling thread in
// index order — no threads are spawned, so single-worker runs are
// bit-identical to a plain loop. Bodies must not throw.
void ParallelFor(size_t n, size_t jobs, const std::function<void(size_t)>& body);

// Flat fan-out: runs every fully-specified campaign (each spec carries its
// own seed) on an EvalJobs()-sized pool. outcomes[i] always corresponds to
// specs[i], regardless of scheduling order.
std::vector<CampaignOutcome> RunCampaigns(const std::vector<CampaignSpec>& specs);

// seeds × configurations grid on one shared pool: result[c] holds `runs`
// results for configs[c] with seeds 1..runs, or is empty if that
// configuration is unsupported (RepeatCampaign semantics).
std::vector<std::vector<CampaignResult>> RunCampaignGrid(
    const std::vector<CampaignSpec>& configs, size_t runs);

}  // namespace nyx

#endif  // SRC_HARNESS_PARALLEL_H_
