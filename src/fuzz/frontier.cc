#include "src/fuzz/frontier.h"

#include "src/common/check.h"
#include "src/common/telemetry.h"

namespace nyx {

CorpusFrontier::CorpusFrontier(size_t shards)
    : shards_(shards), active_(shards), staged_(shards), next_(shards, 0) {
  NYX_CHECK(shards > 0);
}

void CorpusFrontier::FlipLocked() {
  for (size_t s = 0; s < shards_; s++) {
    for (Entry& e : staged_[s]) {
      // Dedup across the whole campaign; iterating in shard order makes the
      // surviving copy (and its origin) independent of arrival order.
      const uint64_t h = e.program.OpsHash(e.program.ops.size());
      if (!seen_.insert(h).second) {
        continue;
      }
      log_.push_back(std::move(e));
    }
    staged_[s].clear();
  }
  arrived_ = 0;
  generation_++;
}

std::vector<CorpusFrontier::Entry> CorpusFrontier::ExchangeSync(size_t shard,
                                                                std::vector<Entry> fresh) {
  // Covers both lock acquisition and barrier-wait time, so the phase
  // histogram exposes sync stalls, not just critical-section work.
  telemetry::ScopedPhase phase(telemetry::Phase::kFrontierSync);
  MutexLock lock(mu_);
  NYX_CHECK_LT(shard, shards_);
  for (Entry& e : fresh) {
    e.origin = shard;
    staged_[shard].push_back(std::move(e));
  }
  arrived_++;
  const uint64_t gen = generation_;
  if (arrived_ == active_) {
    FlipLocked();
    cv_.NotifyAll();
  } else {
    while (generation_ == gen) {
      cv_.Wait(mu_);
    }
  }
  std::vector<Entry> imports;
  for (size_t i = next_[shard]; i < log_.size(); i++) {
    if (log_[i].origin != shard) {
      imports.push_back(log_[i]);
    }
  }
  next_[shard] = log_.size();
  return imports;
}

void CorpusFrontier::Leave(size_t shard, std::vector<Entry> fresh, const GlobalCoverage& cov) {
  telemetry::ScopedPhase phase(telemetry::Phase::kFrontierSync);
  MutexLock lock(mu_);
  NYX_CHECK_LT(shard, shards_);
  for (Entry& e : fresh) {
    e.origin = shard;
    staged_[shard].push_back(std::move(e));
  }
  merged_cov_.MergeFrom(cov);
  NYX_CHECK(active_ > 0);
  active_--;
  // The departure may complete the barrier for everyone still waiting. The
  // leaver's final batch rides along in this flip (a generation can never
  // flip between a shard's last sync and its Leave: the barrier needs every
  // active shard, and a leaving shard never arrives again).
  if (active_ > 0 && arrived_ == active_) {
    FlipLocked();
    cv_.NotifyAll();
  }
}

uint64_t CorpusFrontier::generations() const {
  MutexLock lock(mu_);
  return generation_;
}

size_t CorpusFrontier::published() const {
  MutexLock lock(mu_);
  return log_.size();
}

}  // namespace nyx
