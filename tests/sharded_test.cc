// Tests for concurrent campaigns with everything on: fault injection in the
// campaigns and the phase profiler recording, while the campaigns run on
// worker threads of the parallel harness (src/harness/parallel.h). Each
// campaign must still match its serial run with the profiler off. The TSan
// job runs this file for the fault counters and the profiler's per-thread
// histogram shards, which parallel_test leaves off.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "src/common/telemetry.h"
#include "src/harness/campaign.h"
#include "src/harness/parallel.h"

namespace nyx {
namespace {

// Strict equality on every deterministic CampaignResult field a faulted
// campaign sets.
void ExpectSameResult(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_DOUBLE_EQ(a.vtime_seconds, b.vtime_seconds);
  EXPECT_EQ(a.branch_coverage, b.branch_coverage);
  EXPECT_EQ(a.edge_coverage, b.edge_coverage);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.incremental_creates, b.incremental_creates);
  EXPECT_EQ(a.incremental_restores, b.incremental_restores);
  EXPECT_EQ(a.root_restores, b.root_restores);
  EXPECT_EQ(a.contract_soft_failures, b.contract_soft_failures);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faulted_bytes, b.faulted_bytes);
  EXPECT_EQ(a.ijon_best, b.ijon_best);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_EQ(a.coverage_over_time.ToCsv("s"), b.coverage_over_time.ToCsv("s"));
}

TEST(ConcurrentCampaignTest, FaultedCampaignsMatchSerial) {
  std::vector<CampaignSpec> specs;
  for (uint64_t seed = 1; seed <= 3; seed++) {
    CampaignSpec cs;
    cs.target = "lightftp";
    cs.fuzzer = FuzzerKind::kNyxBalanced;
    cs.fault_injection = true;
    cs.limits.vtime_seconds = 2.0;  // vtime-bounded => deterministic
    cs.seed = seed;
    specs.push_back(cs);
  }
  std::vector<CampaignResult> serial;
  for (const CampaignSpec& cs : specs) {
    serial.push_back(RunCampaign(cs).result);
  }

  telemetry::Histogram* run = telemetry::PhaseHistogram(telemetry::Phase::kGuestRun);
  const uint64_t run_before = run->Total();
  telemetry::SetTelemetryEnabled(true);
  setenv("NYX_JOBS", "3", 1);
  const std::vector<CampaignOutcome> concurrent = RunCampaigns(specs);
  unsetenv("NYX_JOBS");
  telemetry::SetTelemetryEnabled(false);
  EXPECT_GT(run->Total(), run_before);

  ASSERT_EQ(concurrent.size(), specs.size());
  for (size_t i = 0; i < specs.size(); i++) {
    SCOPED_TRACE(testing::Message() << "seed " << specs[i].seed);
    ASSERT_TRUE(concurrent[i].supported);
    const CampaignResult& got = concurrent[i].result;
    ExpectSameResult(serial[i], got);
    EXPECT_GT(got.faults_injected, 0u);
    EXPECT_GT(got.wall_seconds, 0.0);
  }
}

}  // namespace
}  // namespace nyx
