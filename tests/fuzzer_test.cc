// Tests for the fuzzer loop, corpus, policies and mutators.

#include <gtest/gtest.h>

#include <set>

#include "src/fuzz/fuzzer.h"
#include "src/spec/builder.h"
#include "src/spec/verify.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

EngineConfig SmallEngineConfig() {
  EngineConfig cfg;
  cfg.vm.mem_pages = 256;
  cfg.vm.disk_sectors = 256;
  return cfg;
}

Program FtpSeed(const Spec& spec) {
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "USER anonymous\r\n");
  b.Packet(con, "PASS guest\r\n");
  b.Packet(con, "CWD /files\r\n");
  b.Packet(con, "STOR data.bin\r\n");
  b.Packet(con, "LIST\r\n");
  return *b.Build();
}

TEST(PolicyTest, NoneAlwaysRoot) {
  SnapshotPolicy policy(PolicyMode::kNone, 1);
  AggressiveCursor cursor;
  for (int i = 0; i < 50; i++) {
    EXPECT_FALSE(policy.Decide(100, cursor, false).use_incremental);
  }
}

TEST(PolicyTest, ShortInputsAlwaysRoot) {
  for (PolicyMode mode : {PolicyMode::kBalanced, PolicyMode::kAggressive}) {
    SnapshotPolicy policy(mode, 1);
    AggressiveCursor cursor;
    for (size_t packets = 0; packets < kMinPacketsForSnapshot; packets++) {
      EXPECT_FALSE(policy.Decide(packets, cursor, false).use_incremental)
          << PolicyName(mode) << " packets=" << packets;
    }
  }
}

TEST(PolicyTest, BalancedDistribution) {
  SnapshotPolicy policy(PolicyMode::kBalanced, 42);
  AggressiveCursor cursor;
  constexpr size_t kPackets = 20;
  constexpr int kTrials = 20000;
  int root = 0;
  int second_half = 0;
  int incremental = 0;
  for (int i = 0; i < kTrials; i++) {
    auto d = policy.Decide(kPackets, cursor, false);
    if (!d.use_incremental) {
      root++;
      continue;
    }
    incremental++;
    ASSERT_LT(d.packet_index, kPackets - 1);  // never after the last packet
    if (d.packet_index >= kPackets / 2) {
      second_half++;
    }
  }
  // ~4% root.
  EXPECT_NEAR(static_cast<double>(root) / kTrials, 0.04, 0.01);
  // 50% whole-range + 50% second-half => ~75% of placements in second half.
  EXPECT_NEAR(static_cast<double>(second_half) / incremental, 0.75, 0.04);
}

TEST(PolicyTest, AggressiveCyclesFromEnd) {
  SnapshotPolicy policy(PolicyMode::kAggressive, 7);
  AggressiveCursor cursor;
  const size_t n = 6;
  auto d = policy.Decide(n, cursor, false);
  EXPECT_TRUE(d.use_incremental);
  EXPECT_EQ(d.packet_index, n - 2);  // starts at the end

  // 50 fruitless schedules move the snapshot one packet earlier.
  for (uint64_t i = 0; i < kFruitlessThreshold; i++) {
    d = policy.Decide(n, cursor, false);
  }
  EXPECT_EQ(d.packet_index, n - 3);

  // Finding new inputs resets the fruitless counter.
  d = policy.Decide(n, cursor, true);
  EXPECT_EQ(d.packet_index, n - 3);
  EXPECT_EQ(cursor.fruitless, 0u);

  // Cycle all the way down: wraps back to the end.
  for (size_t steps = 0; steps < (n - 2) * kFruitlessThreshold; steps++) {
    d = policy.Decide(n, cursor, false);
  }
  EXPECT_EQ(d.packet_index, n - 2);
}

TEST(MutatorTest, NeverTouchesPrefix) {
  Spec spec = Spec::GenericNetwork();
  Program seed = FtpSeed(spec);
  Mutator mutator(spec, 99);
  std::vector<size_t> packets;
  seed.PacketOpIndices(spec, packets);
  const size_t first_mutable = packets[2] + 1;  // prefix: conn + 3 packets

  for (int trial = 0; trial < 300; trial++) {
    Program mutated = seed;
    mutator.Mutate(mutated, {}, first_mutable);
    ASSERT_TRUE(spec::Verify(mutated, spec).ok());
    ASSERT_GE(mutated.ops.size(), first_mutable);
    for (size_t i = 0; i < first_mutable; i++) {
      ASSERT_EQ(mutated.ops[i].node_type, seed.ops[i].node_type) << "trial " << trial;
      ASSERT_EQ(mutated.ops[i].data, seed.ops[i].data) << "trial " << trial;
      ASSERT_EQ(mutated.ops[i].args, seed.ops[i].args) << "trial " << trial;
    }
  }
}

TEST(MutatorTest, ProducesDiverseOutputs) {
  Spec spec = Spec::GenericNetwork();
  Program seed = FtpSeed(spec);
  Mutator mutator(spec, 5);
  std::set<Bytes> variants;
  for (int i = 0; i < 100; i++) {
    Program mutated = seed;
    mutator.Mutate(mutated, {}, 0);
    variants.insert(mutated.Serialize());
  }
  EXPECT_GT(variants.size(), 60u);
}

TEST(MutatorTest, SpliceUsesDonors) {
  Spec spec = Spec::GenericNetwork();
  Program seed = FtpSeed(spec);
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "DONOR-MARKER-PAYLOAD\r\n");
  Program donor = *b.Build();

  Mutator mutator(spec, 3);
  std::vector<const Program*> donors = {&donor};
  bool found_donor_material = false;
  for (int i = 0; i < 500 && !found_donor_material; i++) {
    Program mutated = seed;
    mutator.Mutate(mutated, donors, 0);
    for (const Op& op : mutated.ops) {
      if (ToString(op.data).find("DONOR-MARKER") != std::string::npos) {
        found_donor_material = true;
      }
    }
  }
  EXPECT_TRUE(found_donor_material);
}

TEST(CorpusTest, PickPrefersLessPicked) {
  Corpus corpus;
  Spec spec = Spec::GenericNetwork();
  for (int i = 0; i < 4; i++) {
    corpus.Add(FtpSeed(spec), 1000, 5, 0.0);
  }
  Rng rng(1);
  std::map<uint64_t, int> pick_counts;
  for (int i = 0; i < 400; i++) {
    corpus.Pick(rng);
  }
  uint64_t total = 0;
  for (size_t i = 0; i < corpus.size(); i++) {
    total += corpus.entry(i).picks;
    EXPECT_GT(corpus.entry(i).picks, 50u);  // all entries get scheduled
  }
  EXPECT_EQ(total, 400u);
}

TEST(FuzzerTest, FindsCoverageOnLightFtp) {
  Spec spec = Spec::GenericNetwork();
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  fcfg.seed = 11;
  NyxFuzzer fuzzer(SmallEngineConfig(), MakeLightFtp, spec, fcfg);
  fuzzer.AddSeed(FtpSeed(spec));

  CampaignLimits limits;
  limits.vtime_seconds = 3.0;
  limits.wall_seconds = 30.0;
  CampaignResult result = fuzzer.Run(limits);

  EXPECT_GT(result.execs, 100u);
  EXPECT_GT(result.branch_coverage, 30u);  // well beyond the seed's coverage
  EXPECT_GT(result.corpus_size, 1u);
  EXPECT_TRUE(result.crashes.empty());  // lightftp has no seeded bug
  EXPECT_FALSE(result.coverage_over_time.empty());
  // Coverage series is monotone.
  double prev = 0;
  for (const auto& [t, v] : result.coverage_over_time.points()) {
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(FuzzerTest, PoliciesChangeSnapshotUsage) {
  Spec spec = Spec::GenericNetwork();
  CampaignLimits limits;
  limits.vtime_seconds = 2.0;
  limits.wall_seconds = 30.0;

  FuzzerConfig none_cfg;
  none_cfg.policy = PolicyMode::kNone;
  NyxFuzzer none(SmallEngineConfig(), MakeLightFtp, spec, none_cfg);
  none.AddSeed(FtpSeed(spec));
  CampaignResult none_result = none.Run(limits);
  EXPECT_EQ(none_result.incremental_creates, 0u);

  FuzzerConfig aggr_cfg;
  aggr_cfg.policy = PolicyMode::kAggressive;
  NyxFuzzer aggr(SmallEngineConfig(), MakeLightFtp, spec, aggr_cfg);
  aggr.AddSeed(FtpSeed(spec));
  CampaignResult aggr_result = aggr.Run(limits);
  EXPECT_GT(aggr_result.incremental_creates, 0u);
  EXPECT_GT(aggr_result.incremental_restores, aggr_result.incremental_creates);
  // Skipping prefixes buys throughput.
  EXPECT_GT(aggr_result.execs, none_result.execs);
}

TEST(FuzzerTest, IncrementalLivesForTheWholeSchedule) {
  // One placement decision covers a schedule of kIterationsPerSchedule
  // execs. The full-range execs, which run from the root and drop the
  // incremental, go first, so one capture serves every suffix exec after
  // them. Interleaving them gives about 3 restores per capture.
  Spec spec = Spec::GenericNetwork();
  CampaignLimits limits;
  limits.vtime_seconds = 2.0;
  limits.wall_seconds = 30.0;
  for (PolicyMode mode : {PolicyMode::kBalanced, PolicyMode::kAggressive}) {
    FuzzerConfig fcfg;
    fcfg.policy = mode;
    fcfg.seed = 5;
    NyxFuzzer fuzzer(SmallEngineConfig(), MakeLightFtp, spec, fcfg);
    fuzzer.AddSeed(FtpSeed(spec));
    CampaignResult result = fuzzer.Run(limits);
    ASSERT_GT(result.incremental_creates, 0u) << PolicyName(mode);
    EXPECT_GE(result.incremental_restores, 20 * result.incremental_creates)
        << PolicyName(mode) << ": " << result.incremental_restores << " restores from "
        << result.incremental_creates << " captures";
  }
}

TEST(FuzzerTest, DeterministicWithSameSeed) {
  Spec spec = Spec::GenericNetwork();
  CampaignLimits limits;
  limits.vtime_seconds = 1.0;
  limits.wall_seconds = 30.0;
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  fcfg.seed = 77;

  NyxFuzzer a(SmallEngineConfig(), MakeLightFtp, spec, fcfg);
  a.AddSeed(FtpSeed(spec));
  CampaignResult ra = a.Run(limits);

  NyxFuzzer b(SmallEngineConfig(), MakeLightFtp, spec, fcfg);
  b.AddSeed(FtpSeed(spec));
  CampaignResult rb = b.Run(limits);

  EXPECT_EQ(ra.execs, rb.execs);
  EXPECT_EQ(ra.branch_coverage, rb.branch_coverage);
  EXPECT_EQ(ra.corpus_size, rb.corpus_size);
}

TEST(FuzzerTest, RunsWithoutSeeds) {
  Spec spec = Spec::GenericNetwork();
  FuzzerConfig fcfg;
  NyxFuzzer fuzzer(SmallEngineConfig(), MakeLightFtp, spec, fcfg);
  CampaignLimits limits;
  limits.vtime_seconds = 0.5;
  limits.wall_seconds = 20.0;
  CampaignResult result = fuzzer.Run(limits);
  EXPECT_GT(result.execs, 10u);
  EXPECT_GT(result.branch_coverage, 0u);
}

TEST(FuzzerTest, ExecCapRespected) {
  Spec spec = Spec::GenericNetwork();
  FuzzerConfig fcfg;
  NyxFuzzer fuzzer(SmallEngineConfig(), MakeLightFtp, spec, fcfg);
  fuzzer.AddSeed(FtpSeed(spec));
  CampaignLimits limits;
  limits.vtime_seconds = 1e9;
  limits.max_execs = 50;
  limits.wall_seconds = 20.0;
  CampaignResult result = fuzzer.Run(limits);
  EXPECT_LE(result.execs, 51u);
}

}  // namespace
}  // namespace nyx
