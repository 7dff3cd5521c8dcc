// Cross-worker corpus exchange for in-process sharded fuzzing (AFL's -M/-S
// mode, paper section 6.2: Nyx-Net campaigns ran "10 processes in parallel
// on the same corpus").
//
// N NyxFuzzer workers attack the same target, one Vm each. Every few
// schedule batches each worker rendezvouses at the frontier, publishes the
// corpus entries it found since the last sync, and imports everyone else's.
// The exchange is a lock-step generation barrier: the last worker to arrive
// appends all staged batches to a shared log *in shard order*, so the import
// order — and therefore every worker's downstream RNG/corpus trajectory —
// is independent of thread scheduling. Repeated sharded runs with the same
// seeds are bit-identical as long as the campaign is bounded by virtual
// time or exec count (wall-clock limits are inherently nondeterministic).
//
// A worker whose budget runs out calls Leave(): it publishes its final
// batch, folds its coverage into the merged map, and drops out of the
// barrier so the remaining workers stop waiting for it.

#ifndef SRC_FUZZ_FRONTIER_H_
#define SRC_FUZZ_FRONTIER_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/common/sync.h"
#include "src/fuzz/coverage.h"
#include "src/spec/program.h"

namespace nyx {

class CorpusFrontier {
 public:
  struct Entry {
    Program program;  // snapshot markers stripped
    uint64_t vtime_ns = 0;
    size_t packet_count = 0;
    size_t origin = 0;  // shard that found it (importers skip their own)
  };

  explicit CorpusFrontier(size_t shards);

  // Rendezvous: stages `fresh`, blocks until every active shard has arrived
  // (the last arriver flips the generation), then returns all log entries
  // this shard has not imported yet, excluding its own. Must not be called
  // after Leave().
  std::vector<Entry> ExchangeSync(size_t shard, std::vector<Entry> fresh)
      NYX_EXCLUDES(mu_);

  // Final exit: publishes the remaining batch, folds `cov` into the merged
  // coverage, and removes the shard from the barrier. Never blocks.
  void Leave(size_t shard, std::vector<Entry> fresh, const GlobalCoverage& cov)
      NYX_EXCLUDES(mu_);

  // Union of all workers' coverage. Only valid once every shard has left
  // (i.e. after joining the worker threads) — at that point no writer
  // exists, which is an invariant the static analysis cannot see.
  const GlobalCoverage& merged_coverage() const NYX_NO_THREAD_SAFETY_ANALYSIS {
    return merged_cov_;
  }

  size_t shards() const { return shards_; }
  uint64_t generations() const NYX_EXCLUDES(mu_);
  size_t published() const NYX_EXCLUDES(mu_);

 private:
  // Appends staged batches to the log in shard order, dropping programs
  // already published (hash dedup — deterministic winner: lowest shard).
  void FlipLocked() NYX_REQUIRES(mu_);

  const size_t shards_;
  // Own cache line: workers hammer this line at every rendezvous while the
  // entries they stage live right next to it.
  alignas(kCacheLineSize) mutable Mutex mu_{"frontier.mu", LockRank::kFrontier};
  CondVar cv_;
  size_t active_ NYX_GUARDED_BY(mu_);       // shards that have not Left yet
  size_t arrived_ NYX_GUARDED_BY(mu_) = 0;  // shards waiting at this generation
  uint64_t generation_ NYX_GUARDED_BY(mu_) = 0;
  // Per shard, pending flip.
  std::vector<std::vector<Entry>> staged_ NYX_GUARDED_BY(mu_);
  // Published entries, stable order.
  std::vector<Entry> log_ NYX_GUARDED_BY(mu_);
  // Per shard: first unseen log index.
  std::vector<size_t> next_ NYX_GUARDED_BY(mu_);
  // Published program hashes.
  std::unordered_set<uint64_t> seen_ NYX_GUARDED_BY(mu_);
  GlobalCoverage merged_cov_ NYX_GUARDED_BY(mu_);
};

}  // namespace nyx

#endif  // SRC_FUZZ_FRONTIER_H_
