// Tests for the evaluation harness: campaign runner plumbing for every
// fuzzer kind, repetition/median helpers and the table/format utilities.

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "src/harness/campaign.h"
#include "src/harness/table.h"

namespace nyx {
namespace {

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"a", "long-header"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-cell", "2"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| a           | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| longer-cell | 2           |"), std::string::npos);
  // Separator row present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_NE(t.Render().find("only-one"), std::string::npos);
}

TEST(FormatTest, Numbers) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(FmtPercent(0.043), "+4.3%");
  EXPECT_EQ(FmtPercent(-0.105), "-10.5%");
  EXPECT_EQ(FmtDuration(3725), "01:02:05");
  EXPECT_EQ(FmtDuration(-1), "-");
}

TEST(CampaignTest, FuzzerKindNames) {
  EXPECT_STREQ(FuzzerKindName(FuzzerKind::kAflnet), "AFLNet");
  EXPECT_STREQ(FuzzerKindName(FuzzerKind::kNyxAggressive), "Nyx-Net-aggressive");
  EXPECT_TRUE(IsNyxKind(FuzzerKind::kNyxNone));
  EXPECT_FALSE(IsNyxKind(FuzzerKind::kIjon));
}

TEST(CampaignTest, ParseFuzzerAcceptsEveryPolicyName) {
  const std::pair<const char*, FuzzerKind> kNames[] = {
      {"none", FuzzerKind::kNyxNone},
      {"balanced", FuzzerKind::kNyxBalanced},
      {"aggressive", FuzzerKind::kNyxAggressive},
      {"aflnet", FuzzerKind::kAflnet},
      {"aflnet-no-state", FuzzerKind::kAflnetNoState},
      {"aflnwe", FuzzerKind::kAflnwe},
      {"desock", FuzzerKind::kAflppDesock},
      {"ijon", FuzzerKind::kIjon},
  };
  for (const auto& [name, kind] : kNames) {
    EXPECT_EQ(ParseFuzzer(name), kind) << name;
  }
  // A misspelling selects nothing rather than a default.
  EXPECT_EQ(ParseFuzzer("balancd"), std::nullopt);
}

TEST(CampaignTest, UnknownTargetUnsupported) {
  CampaignSpec cs;
  cs.target = "no-such-target";
  EXPECT_FALSE(RunCampaign(cs).supported);
}

TEST(CampaignTest, EveryFuzzerKindRunsLightFtp) {
  for (FuzzerKind f :
       {FuzzerKind::kAflnet, FuzzerKind::kAflnetNoState, FuzzerKind::kAflnwe,
        FuzzerKind::kAflppDesock, FuzzerKind::kNyxNone, FuzzerKind::kNyxBalanced,
        FuzzerKind::kNyxAggressive}) {
    CampaignSpec cs;
    cs.target = "lightftp";
    cs.fuzzer = f;
    cs.limits.vtime_seconds = 5.0;
    cs.limits.wall_seconds = 20.0;
    CampaignOutcome out = RunCampaign(cs);
    ASSERT_TRUE(out.supported) << FuzzerKindName(f);
    EXPECT_GT(out.result.execs, 0u) << FuzzerKindName(f);
    EXPECT_GT(out.result.branch_coverage, 0u) << FuzzerKindName(f);
  }
}

TEST(CampaignTest, DesockUnsupportedPropagates) {
  CampaignSpec cs;
  cs.target = "kamailio";
  cs.fuzzer = FuzzerKind::kAflppDesock;
  EXPECT_FALSE(RunCampaign(cs).supported);
  EXPECT_TRUE(RepeatCampaign(cs, 2).empty());
}

TEST(CampaignTest, RepeatVariesSeeds) {
  CampaignSpec cs;
  cs.target = "lightftp";
  cs.fuzzer = FuzzerKind::kNyxBalanced;
  cs.limits.vtime_seconds = 2.0;
  cs.limits.wall_seconds = 20.0;
  auto results = RepeatCampaign(cs, 3);
  ASSERT_EQ(results.size(), 3u);
  // Different seeds should give (usually) different exec counts.
  EXPECT_TRUE(results[0].execs != results[1].execs || results[1].execs != results[2].execs);
}

TEST(CampaignTest, MarioCampaignSolves) {
  CampaignOutcome out = RunMarioCampaign("1-1", FuzzerKind::kNyxAggressive, 60.0, 3);
  ASSERT_TRUE(out.supported);
  EXPECT_GE(out.result.ijon_goal_vsec, 0.0) << "1-1 should solve quickly";
}

TEST(CampaignTest, EnvKnobs) {
  unsetenv("NYX_RUNS");
  unsetenv("NYX_VTIME");
  EXPECT_EQ(EvalRuns(3), 3u);
  EXPECT_DOUBLE_EQ(EvalVtime(7.5), 7.5);
  setenv("NYX_RUNS", "9", 1);
  setenv("NYX_VTIME", "42.5", 1);
  EXPECT_EQ(EvalRuns(3), 9u);
  EXPECT_DOUBLE_EQ(EvalVtime(7.5), 42.5);
  unsetenv("NYX_RUNS");
  unsetenv("NYX_VTIME");
}

}  // namespace
}  // namespace nyx
