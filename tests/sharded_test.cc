// Tests for in-process sharded fuzzing: the CorpusFrontier's lock-step
// exchange and RunShardedCampaign's determinism and aggregation.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/telemetry.h"
#include "src/fuzz/frontier.h"
#include "src/harness/campaign.h"
#include "src/harness/parallel.h"

namespace nyx {
namespace {

CorpusFrontier::Entry MakeEntry(uint8_t tag) {
  CorpusFrontier::Entry e;
  Op op;
  op.node_type = tag;
  e.program.ops.push_back(op);
  e.vtime_ns = tag;
  e.packet_count = 1;
  return e;
}

TEST(FrontierTest, TwoShardsExchangeEntries) {
  CorpusFrontier frontier(2);
  std::vector<CorpusFrontier::Entry> got0, got1;
  std::thread t0([&] {
    std::vector<CorpusFrontier::Entry> fresh;
    fresh.push_back(MakeEntry(10));
    got0 = frontier.ExchangeSync(0, std::move(fresh));
  });
  std::thread t1([&] {
    std::vector<CorpusFrontier::Entry> fresh;
    fresh.push_back(MakeEntry(20));
    got1 = frontier.ExchangeSync(1, std::move(fresh));
  });
  t0.join();
  t1.join();
  // Each shard sees exactly the other's entry, never its own.
  ASSERT_EQ(got0.size(), 1u);
  EXPECT_EQ(got0[0].vtime_ns, 20u);
  EXPECT_EQ(got0[0].origin, 1u);
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_EQ(got1[0].vtime_ns, 10u);
  EXPECT_EQ(got1[0].origin, 0u);
  EXPECT_EQ(frontier.generations(), 1u);
  EXPECT_EQ(frontier.published(), 2u);
}

TEST(FrontierTest, DuplicateProgramsDedupedInShardOrder) {
  CorpusFrontier frontier(2);
  std::vector<CorpusFrontier::Entry> got0, got1;
  std::thread t0([&] {
    std::vector<CorpusFrontier::Entry> fresh;
    fresh.push_back(MakeEntry(7));
    got0 = frontier.ExchangeSync(0, std::move(fresh));
  });
  std::thread t1([&] {
    std::vector<CorpusFrontier::Entry> fresh;
    fresh.push_back(MakeEntry(7));  // identical program to shard 0's
    got1 = frontier.ExchangeSync(1, std::move(fresh));
  });
  t0.join();
  t1.join();
  // One copy survives, attributed to the lowest shard regardless of arrival
  // order — so shard 0 imports nothing and shard 1 imports shard 0's copy.
  EXPECT_EQ(frontier.published(), 1u);
  EXPECT_TRUE(got0.empty());
  ASSERT_EQ(got1.size(), 1u);
  EXPECT_EQ(got1[0].origin, 0u);
}

TEST(FrontierTest, LeaveUnblocksRemainingShards) {
  CorpusFrontier frontier(2);
  GlobalCoverage cov;
  // Shard 1 leaves immediately with a final find; shard 0's next sync must
  // not deadlock and must import that find.
  frontier.Leave(1, {MakeEntry(42)}, cov);
  std::vector<CorpusFrontier::Entry> got = frontier.ExchangeSync(0, {});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].vtime_ns, 42u);
}

void ExpectSameResult(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_DOUBLE_EQ(a.vtime_seconds, b.vtime_seconds);
  EXPECT_EQ(a.branch_coverage, b.branch_coverage);
  EXPECT_EQ(a.edge_coverage, b.edge_coverage);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.incremental_creates, b.incremental_creates);
  EXPECT_EQ(a.incremental_restores, b.incremental_restores);
  EXPECT_EQ(a.root_restores, b.root_restores);
  EXPECT_EQ(a.ijon_best, b.ijon_best);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_EQ(a.coverage_over_time.ToCsv("s"), b.coverage_over_time.ToCsv("s"));
}

CampaignSpec ShardableSpec() {
  CampaignSpec cs;
  cs.target = "lightftp";
  cs.fuzzer = FuzzerKind::kNyxBalanced;
  cs.limits.vtime_seconds = 2.0;  // vtime-bounded => deterministic
  cs.seed = 1;
  return cs;
}

TEST(ShardedCampaignTest, RepeatedRunsAreIdentical) {
  const CampaignSpec cs = ShardableSpec();
  const ShardedOutcome a = RunShardedCampaign(cs, 3);
  const ShardedOutcome b = RunShardedCampaign(cs, 3);
  ASSERT_TRUE(a.supported);
  ASSERT_TRUE(b.supported);
  ASSERT_EQ(a.per_shard.size(), 3u);
  for (size_t s = 0; s < 3; s++) {
    ExpectSameResult(a.per_shard[s], b.per_shard[s]);
  }
  ExpectSameResult(a.merged, b.merged);
  EXPECT_EQ(a.frontier_generations, b.frontier_generations);
  EXPECT_EQ(a.frontier_published, b.frontier_published);
}

TEST(ShardedCampaignTest, OneShardMatchesPlainCampaign) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "fault injection on" : "fault injection off");
    CampaignSpec cs = ShardableSpec();
    cs.fault_injection = faults;
    const CampaignOutcome plain = RunCampaign(cs);
    const ShardedOutcome sharded = RunShardedCampaign(cs, 1);
    ASSERT_TRUE(sharded.supported);
    ASSERT_EQ(sharded.per_shard.size(), 1u);
    // A 1-shard frontier never imports anything, so the worker's trajectory
    // is exactly the unsharded campaign's.
    ExpectSameResult(plain.result, sharded.per_shard[0]);
    EXPECT_EQ(plain.result.faults_injected, sharded.per_shard[0].faults_injected);
    EXPECT_EQ(plain.result.faulted_bytes, sharded.per_shard[0].faulted_bytes);
    if (faults) {
      EXPECT_GT(sharded.per_shard[0].faults_injected, 0u);
    }
  }
}

TEST(ShardedCampaignTest, MergedAggregatesShards) {
  CampaignSpec cs = ShardableSpec();
  cs.fault_injection = true;
  // The phase profiler runs too: the shards' frontier exchanges and guest
  // runs must reach the process-wide phase histograms.
  telemetry::Histogram* sync = telemetry::PhaseHistogram(telemetry::Phase::kFrontierSync);
  telemetry::Histogram* run = telemetry::PhaseHistogram(telemetry::Phase::kGuestRun);
  const uint64_t sync_before = sync->Total();
  const uint64_t run_before = run->Total();
  telemetry::SetTelemetryEnabled(true);
  const ShardedOutcome out = RunShardedCampaign(cs, 2);
  telemetry::SetTelemetryEnabled(false);
  EXPECT_GT(sync->Total(), sync_before);
  EXPECT_GT(run->Total(), run_before);
  ASSERT_TRUE(out.supported);
  CampaignResult sum;
  size_t best_cov = 0;
  double slowest = 0.0;
  for (const CampaignResult& r : out.per_shard) {
    EXPECT_GT(r.execs, 0u);
    EXPECT_GT(r.wall_seconds, 0.0);
    slowest = std::max(slowest, r.wall_seconds);
    sum.execs += r.execs;
    sum.corpus_size += r.corpus_size;
    sum.incremental_creates += r.incremental_creates;
    sum.incremental_restores += r.incremental_restores;
    sum.root_restores += r.root_restores;
    sum.contract_soft_failures += r.contract_soft_failures;
    sum.pages_audited += r.pages_audited;
    sum.audit_divergences += r.audit_divergences;
    sum.faults_injected += r.faults_injected;
    sum.faulted_bytes += r.faulted_bytes;
    sum.corpus_dupes += r.corpus_dupes;
    sum.dirty_traps += r.dirty_traps;
    sum.protect_calls += r.protect_calls;
    sum.pinned_pages += r.pinned_pages;
    sum.pages_restored += r.pages_restored;
    sum.pages_captured += r.pages_captured;
    sum.root_pages += r.root_pages;
    best_cov = std::max(best_cov, r.branch_coverage);
  }
  const CampaignResult& m = out.merged;
  EXPECT_EQ(m.execs, sum.execs);
  EXPECT_EQ(m.corpus_size, sum.corpus_size);
  EXPECT_EQ(m.incremental_creates, sum.incremental_creates);
  EXPECT_EQ(m.incremental_restores, sum.incremental_restores);
  EXPECT_EQ(m.root_restores, sum.root_restores);
  EXPECT_EQ(m.contract_soft_failures, sum.contract_soft_failures);
  EXPECT_EQ(m.pages_audited, sum.pages_audited);
  EXPECT_EQ(m.audit_divergences, sum.audit_divergences);
  EXPECT_EQ(m.faults_injected, sum.faults_injected);
  EXPECT_GT(m.faults_injected, 0u);
  EXPECT_EQ(m.faulted_bytes, sum.faulted_bytes);
  EXPECT_EQ(m.corpus_dupes, sum.corpus_dupes);
  EXPECT_EQ(m.dirty_traps, sum.dirty_traps);
  EXPECT_EQ(m.protect_calls, sum.protect_calls);
  EXPECT_EQ(m.pinned_pages, sum.pinned_pages);
  EXPECT_EQ(m.pages_restored, sum.pages_restored);
  EXPECT_EQ(m.pages_captured, sum.pages_captured);
  EXPECT_EQ(m.root_pages, sum.root_pages);
  // Shards run concurrently, so the campaign took its slowest shard's time.
  EXPECT_EQ(m.wall_seconds, slowest);
  // The frontier-merged map covers at least what the best shard saw.
  EXPECT_GE(out.merged.branch_coverage, best_cov);
  EXPECT_GT(out.merged.branch_coverage, 0u);
  EXPECT_GT(out.frontier_generations, 0u);
}

TEST(ShardedCampaignTest, RejectsBaselinesAndZeroShards) {
  CampaignSpec cs = ShardableSpec();
  EXPECT_FALSE(RunShardedCampaign(cs, 0).supported);
  cs.fuzzer = FuzzerKind::kAflnet;
  EXPECT_FALSE(RunShardedCampaign(cs, 2).supported);
  cs.fuzzer = FuzzerKind::kNyxNone;
  cs.target = "no-such-target";
  EXPECT_FALSE(RunShardedCampaign(cs, 2).supported);
}

}  // namespace
}  // namespace nyx
