#include "src/harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "src/common/env.h"
#include "src/common/sync.h"

namespace nyx {

size_t EvalJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env::Jobs(hw > 0 ? hw : 1);
}

void ParallelFor(size_t n, size_t jobs, const std::function<void(size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (jobs <= 1 || n <= 1) {
    // Inline serial path: no threads, identical to a plain loop.
    for (size_t i = 0; i < n; i++) {
      body(i);
    }
    return;
  }
  // Own cache line: every worker fetch_adds this counter between bodies,
  // and the surrounding stack frame (captured by reference below) must not
  // share the line with it.
  alignas(kCacheLineSize) std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  const size_t workers = std::min(jobs, n);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; w++) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

std::vector<CampaignOutcome> RunCampaigns(const std::vector<CampaignSpec>& specs) {
  std::vector<CampaignOutcome> outcomes(specs.size());
  ParallelFor(specs.size(), EvalJobs(),
              [&](size_t i) { outcomes[i] = RunCampaign(specs[i]); });
  return outcomes;
}

std::vector<std::vector<CampaignResult>> RunCampaignGrid(
    const std::vector<CampaignSpec>& configs, size_t runs) {
  // One flat pool over every (configuration, seed) cell — a per-config pool
  // would leave workers idle whenever a config has fewer runs than jobs.
  std::vector<CampaignOutcome> cells(configs.size() * runs);
  ParallelFor(cells.size(), EvalJobs(), [&](size_t i) {
    CampaignSpec spec = configs[i / runs];
    spec.seed = i % runs + 1;
    cells[i] = RunCampaign(spec);
  });

  std::vector<std::vector<CampaignResult>> grid(configs.size());
  for (size_t c = 0; c < configs.size(); c++) {
    bool supported = true;
    for (size_t r = 0; r < runs; r++) {
      supported = supported && cells[c * runs + r].supported;
    }
    if (!supported) {
      continue;  // RepeatCampaign semantics: unsupported config -> empty
    }
    grid[c].reserve(runs);
    for (size_t r = 0; r < runs; r++) {
      grid[c].push_back(std::move(cells[c * runs + r].result));
    }
  }
  return grid;
}

}  // namespace nyx
