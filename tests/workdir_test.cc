// Tests for on-disk campaign state: queue/crash persistence, resumption and
// malformed-file tolerance.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "src/fuzz/workdir.h"
#include "src/spec/builder.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

class WorkdirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/nyx-workdir-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    base_ = tmpl;
  }

  void TearDown() override {
    std::string cmd = "rm -rf " + base_;
    ASSERT_EQ(system(cmd.c_str()), 0);
  }

  std::string base_;
};

Program MakeProgram(const Spec& spec, const std::string& payload) {
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, payload + "\r\n");
  return *b.Build();
}

TEST_F(WorkdirTest, OpenCreatesLayout) {
  auto wd = Workdir::Open(base_ + "/campaign");
  ASSERT_TRUE(wd.has_value());
  // Re-opening an existing workdir succeeds.
  EXPECT_TRUE(Workdir::Open(base_ + "/campaign").has_value());
}

TEST_F(WorkdirTest, OpenFailsOnFileCollision) {
  FILE* f = fopen((base_ + "/not-a-dir").c_str(), "w");
  ASSERT_NE(f, nullptr);
  fclose(f);
  EXPECT_FALSE(Workdir::Open(base_ + "/not-a-dir").has_value());
}

TEST_F(WorkdirTest, QueueRoundTrip) {
  Spec spec = Spec::GenericNetwork();
  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  EXPECT_TRUE(wd->SaveQueueEntry(MakeProgram(spec, "USER a"), 0));
  EXPECT_TRUE(wd->SaveQueueEntry(MakeProgram(spec, "USER b"), 1));
  std::vector<Program> loaded = wd->LoadQueue(spec);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(ToString(loaded[0].ops[1].data), "USER a\r\n");
  EXPECT_EQ(ToString(loaded[1].ops[1].data), "USER b\r\n");
}

TEST_F(WorkdirTest, MalformedQueueFilesAreSkipped) {
  Spec spec = Spec::GenericNetwork();
  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  wd->SaveQueueEntry(MakeProgram(spec, "GOOD"), 0);
  FILE* f = fopen((base_ + "/c/queue/id_999999.nyx").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("this is not bytecode", f);
  fclose(f);
  std::vector<Program> loaded = wd->LoadQueue(spec);
  ASSERT_EQ(loaded.size(), 1u);
}

TEST_F(WorkdirTest, CrashRoundTrip) {
  Spec spec = Spec::GenericNetwork();
  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  EXPECT_TRUE(wd->SaveCrash(0xdeadbeef, "null-deref", MakeProgram(spec, "BOOM")));
  auto crashes = wd->LoadCrashes(spec);
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_NE(crashes[0].first.find("deadbeef_null-deref"), std::string::npos);
  EXPECT_EQ(ToString(crashes[0].second.ops[1].data), "BOOM\r\n");
}

// /dev/full accepts the buffered fwrite and fails the flush at fclose with
// ENOSPC, the way a full disk does.
TEST_F(WorkdirTest, WriteToFullDiskFails) {
  Spec spec = Spec::GenericNetwork();
  EXPECT_FALSE(Workdir::WriteProgram("/dev/full", MakeProgram(spec, "USER a")));
}

TEST_F(WorkdirTest, SaveCampaignWritesEverything) {
  Spec spec = Spec::GenericNetwork();
  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  Corpus corpus;
  corpus.Add(MakeProgram(spec, "A"), 100, 1, 0.0);
  corpus.Add(MakeProgram(spec, "B"), 100, 1, 0.0);
  CampaignResult result;
  result.execs = 1234;
  result.vtime_seconds = 5.0;
  result.branch_coverage = 42;
  result.dirty_traps = 7;
  result.protect_calls = 9;
  result.pinned_pages = 2;
  result.pages_restored = 2468;
  result.pages_captured = 321;
  result.root_pages = 17;
  CrashRecord rec;
  rec.kind = "test-crash";
  rec.count = 3;
  rec.reproducer = MakeProgram(spec, "CRASH");
  result.crashes[0x1111] = rec;
  ASSERT_TRUE(wd->SaveCampaign(result, corpus));

  EXPECT_EQ(wd->LoadQueue(spec).size(), 2u);
  EXPECT_EQ(wd->LoadCrashes(spec).size(), 1u);
  FILE* stats = fopen((base_ + "/c/stats.txt").c_str(), "r");
  ASSERT_NE(stats, nullptr);
  char buf[2048];
  size_t n = fread(buf, 1, sizeof(buf) - 1, stats);
  buf[n] = '\0';
  fclose(stats);
  EXPECT_NE(std::string(buf).find("execs            1234"), std::string::npos);
  EXPECT_NE(std::string(buf).find("branch_coverage  42"), std::string::npos);
  EXPECT_NE(std::string(buf).find("dirty_traps      7\n"), std::string::npos);
  EXPECT_NE(std::string(buf).find("protect_calls    9\n"), std::string::npos);
  EXPECT_NE(std::string(buf).find("pinned_pages     2\n"), std::string::npos);
  EXPECT_NE(std::string(buf).find("pages_restored   2468\n"), std::string::npos);
  EXPECT_NE(std::string(buf).find("pages_captured   321\nroot_pages       17\n"),
            std::string::npos);

  FILE* metrics = fopen((base_ + "/c/metrics.json").c_str(), "r");
  ASSERT_NE(metrics, nullptr);
  std::string json;
  while ((n = fread(buf, 1, sizeof(buf), metrics)) > 0) {
    json.append(buf, n);
  }
  fclose(metrics);
  EXPECT_NE(json.find("\"dirty_traps\""), std::string::npos);
  EXPECT_NE(json.find("\"pinned_pages\""), std::string::npos);
  // The root's size is a gauge: it describes the campaign's end state.
  const size_t gauges = json.find("\"gauges\"");
  ASSERT_NE(gauges, std::string::npos);
  EXPECT_NE(json.find("\"root_pages\": 17", gauges), std::string::npos);
}

std::string ReadFile(const std::string& path) {
  std::string text;
  FILE* f = fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) {
    return text;
  }
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  fclose(f);
  return text;
}

TEST_F(WorkdirTest, SnapshotReuseIsIncrementalRestoresPerCreate) {
  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  CampaignResult result;

  // Nothing created: the ratio is 0, not a division by zero.
  result.incremental_restores = 5;
  ASSERT_TRUE(wd->SaveCampaign(result, Corpus()));
  EXPECT_NE(ReadFile(base_ + "/c/stats.txt").find("inc_restores     5\nsnapshot_reuse   0.000\n"),
            std::string::npos);

  result.incremental_creates = 4;
  result.incremental_restores = 10;
  ASSERT_TRUE(wd->SaveCampaign(result, Corpus()));
  EXPECT_NE(ReadFile(base_ + "/c/stats.txt").find("inc_restores     10\nsnapshot_reuse   2.500\n"),
            std::string::npos);
  const std::string json = ReadFile(base_ + "/c/metrics.json");
  const size_t gauges = json.find("\"gauges\"");
  ASSERT_NE(gauges, std::string::npos);
  EXPECT_NE(json.find("\"snapshot_reuse\": 2.500", gauges), std::string::npos);
}

TEST_F(WorkdirTest, ReportsWallClockSpeed) {
  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  CampaignResult result;
  result.execs = 1000;
  result.vtime_seconds = 2.0;
  result.execs_per_vsecond = 500.0;

  // No wall time recorded: the rate is 0, not a division by zero.
  ASSERT_TRUE(wd->SaveCampaign(result, Corpus()));
  EXPECT_NE(ReadFile(base_ + "/c/stats.txt")
                .find("execs_per_vsec   500.000\nwall_seconds     0.000\n"
                      "execs_per_wall_sec 0.000\nbranch_coverage  0\n"),
            std::string::npos);

  result.wall_seconds = 0.25;
  ASSERT_TRUE(wd->SaveCampaign(result, Corpus()));
  EXPECT_NE(ReadFile(base_ + "/c/stats.txt")
                .find("wall_seconds     0.250\nexecs_per_wall_sec 4000.000\n"),
            std::string::npos);
  const std::string json = ReadFile(base_ + "/c/metrics.json");
  const size_t gauges = json.find("\"gauges\"");
  ASSERT_NE(gauges, std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\": 0.250", gauges), std::string::npos);
  EXPECT_NE(json.find("\"execs_per_wall_sec\": 4000.000", gauges), std::string::npos);
}

TEST_F(WorkdirTest, CrashReproducerReplaysInEngine) {
  // End-to-end: save a crashing input, load it back, replay it — the crash
  // must reproduce exactly (the repro workflow of the nyx-net CLI).
  auto reg = FindTarget("lighttpd");
  Spec spec = reg->make_spec();
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "POST /u HTTP/1.1\r\nContent-Length: -9\r\n\r\n");
  Program crasher = *b.Build();

  auto wd = Workdir::Open(base_ + "/c");
  ASSERT_TRUE(wd.has_value());
  ASSERT_TRUE(wd->SaveCrash(kCrashLighttpdAllocUnderflow, "underflow", crasher));
  auto crashes = wd->LoadCrashes(spec);
  ASSERT_EQ(crashes.size(), 1u);

  EngineConfig cfg;
  cfg.vm.mem_pages = 256;
  NyxEngine engine(cfg, reg->factory, spec);
  engine.Boot();
  CoverageMap cov;
  ExecResult r = engine.Run(crashes[0].second, cov);
  ASSERT_TRUE(r.crash.crashed);
  EXPECT_EQ(r.crash.crash_id, kCrashLighttpdAllocUnderflow);
}

}  // namespace
}  // namespace nyx
