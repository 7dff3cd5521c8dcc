#include "src/harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "src/common/env.h"
#include "src/common/hash.h"
#include "src/common/sync.h"
#include "src/fuzz/frontier.h"
#include "src/targets/registry.h"

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

namespace {

// Deterministic per-shard seed. Shard 0 keeps the campaign seed unchanged
// so a 1-shard run reproduces the plain (unsharded) campaign bit-for-bit.
uint64_t ShardSeed(uint64_t seed, size_t shard) {
  return shard == 0 ? seed : Mix64(seed ^ (0x9e3779b97f4a7c15ull * shard));
}

void MergeCrash(CampaignResult& merged, uint32_t id, const CrashRecord& rec) {
  CrashRecord& dst = merged.crashes[id];
  const bool first = dst.count == 0;
  dst.count += rec.count;
  if (first || rec.first_seen_vsec < dst.first_seen_vsec) {
    dst.kind = rec.kind;
    dst.first_seen_vsec = rec.first_seen_vsec;
    dst.reproducer = rec.reproducer;
  }
}

}  // namespace

ShardedOutcome RunShardedCampaign(const CampaignSpec& cs, size_t shards) {
  ShardedOutcome out;
  if (shards == 0 || !IsNyxKind(cs.fuzzer)) {
    out.supported = false;
    return out;
  }
  auto reg = FindTarget(cs.target);
  if (!reg.has_value()) {
    out.supported = false;
    return out;
  }
  const Spec spec = reg->make_spec();
  const std::vector<Program> seeds = reg->make_seeds(spec);

  CorpusFrontier frontier(shards);
  out.per_shard.resize(shards);

  // Dedicated threads, never a bounded pool: every shard must run
  // concurrently or the frontier's lock-step barrier deadlocks.
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (size_t s = 0; s < shards; s++) {
    threads.emplace_back([&, s] {
      EngineConfig ecfg;
      ecfg.vm.mem_pages = cs.vm_pages;
      ecfg.vm.disk_sectors = 512;
      ecfg.asan = cs.asan;
      ecfg.seed = ShardSeed(cs.seed, s);

      FuzzerConfig fcfg;
      fcfg.policy = NyxPolicyFor(cs.fuzzer);
      fcfg.seed = ShardSeed(cs.seed, s);
      fcfg.fault_injection = cs.fault_injection;
      fcfg.frontier = &frontier;
      fcfg.shard = s;

      NyxFuzzer fuzzer(ecfg, reg->factory, spec, fcfg);
      for (const Program& p : seeds) {
        fuzzer.AddSeed(p);
      }
      out.per_shard[s] = fuzzer.Run(cs.limits);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  CampaignResult& m = out.merged;
  for (const CampaignResult& r : out.per_shard) {
    m.execs += r.execs;
    m.vtime_seconds = std::max(m.vtime_seconds, r.vtime_seconds);
    // Shards run concurrently: the campaign took its slowest shard's time.
    m.wall_seconds = std::max(m.wall_seconds, r.wall_seconds);
    m.corpus_size += r.corpus_size;
    m.incremental_creates += r.incremental_creates;
    m.incremental_restores += r.incremental_restores;
    m.root_restores += r.root_restores;
    m.dirty_traps += r.dirty_traps;
    m.protect_calls += r.protect_calls;
    m.pinned_pages += r.pinned_pages;
    m.pages_restored += r.pages_restored;
    m.pages_captured += r.pages_captured;
    m.root_pages += r.root_pages;
    m.wall_capped = m.wall_capped || r.wall_capped;
    m.contract_soft_failures += r.contract_soft_failures;
    m.pages_audited += r.pages_audited;
    m.audit_divergences += r.audit_divergences;
    m.faults_injected += r.faults_injected;
    m.faulted_bytes += r.faulted_bytes;
    m.corpus_dupes += r.corpus_dupes;
    m.ijon_best = std::max(m.ijon_best, r.ijon_best);
    for (const auto& [id, rec] : r.crashes) {
      MergeCrash(m, id, rec);
    }
    if (r.first_crash_vsec >= 0 &&
        (m.first_crash_vsec < 0 || r.first_crash_vsec < m.first_crash_vsec)) {
      m.first_crash_vsec = r.first_crash_vsec;
    }
    if (r.ijon_goal_vsec >= 0 &&
        (m.ijon_goal_vsec < 0 || r.ijon_goal_vsec < m.ijon_goal_vsec)) {
      m.ijon_goal_vsec = r.ijon_goal_vsec;
    }
  }
  m.execs_per_vsecond =
      m.vtime_seconds > 0 ? static_cast<double>(m.execs) / m.vtime_seconds : 0;
  m.branch_coverage = frontier.merged_coverage().SiteCount();
  m.edge_coverage = frontier.merged_coverage().EdgeCount();
  out.frontier_generations = frontier.generations();
  out.frontier_published = frontier.published();
  return out;
}

}  // namespace nyx
