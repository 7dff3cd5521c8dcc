// Integration tests for the Nyx execution engine against a real target
// (lightftp): root snapshot auto-placement, per-execution isolation,
// incremental snapshot reuse, determinism and crash plumbing.

#include <gtest/gtest.h>

#include "src/fuzz/engine.h"
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

Program FtpSession(const Spec& spec, const std::vector<std::string>& lines) {
  Builder b(spec);
  ValueRef con = b.Connection();
  for (const std::string& l : lines) {
    b.Packet(con, l + "\r\n");
  }
  return *b.Build();
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : spec_(Spec::GenericNetwork()), engine_(SmallEngineConfig(), MakeLightFtp, spec_) {
    engine_.Boot();
  }

  Spec spec_;
  NyxEngine engine_;
  CoverageMap cov_;
};

TEST_F(EngineTest, BootBlocksOnInput) {
  // After boot the target is parked on accept(): the root snapshot is placed
  // before the first byte of input.
  EXPECT_TRUE(engine_.net().blocked_on_input());
  EXPECT_TRUE(engine_.vm().has_root());
  EXPECT_FALSE(engine_.net().consumed_input());
}

TEST_F(EngineTest, RunsSessionAndCollectsResponses) {
  Program p = FtpSession(spec_, {"USER anonymous", "PASS x", "PWD"});
  ExecResult r = engine_.Run(p, cov_);
  EXPECT_FALSE(r.crash.crashed);
  EXPECT_EQ(r.packets_delivered, 3u);
  auto responses = engine_.LastResponses();
  ASSERT_GE(responses.size(), 4u);  // banner + 3 replies
  EXPECT_EQ(ToString(responses[0]), "220 LightFTP server ready\r\n");
  EXPECT_EQ(ToString(responses[1]).substr(0, 3), "331");
  EXPECT_EQ(ToString(responses[2]).substr(0, 3), "230");
  EXPECT_EQ(ToString(responses[3]).substr(0, 4), "257 ");
}

TEST_F(EngineTest, ExecutionsAreIsolated) {
  // A STOR in one execution must not be visible in the next one — the
  // snapshot reset rolls back memory AND the emulated disk.
  Program store = FtpSession(spec_, {"USER anonymous", "PASS x", "STOR f.txt", "SIZE f.txt"});
  ExecResult r1 = engine_.Run(store, cov_);
  EXPECT_FALSE(r1.crash.crashed);
  auto resp1 = engine_.LastResponses();
  ASSERT_GE(resp1.size(), 5u);
  EXPECT_EQ(ToString(resp1[4]).substr(0, 3), "213");  // SIZE succeeds

  Program probe = FtpSession(spec_, {"USER anonymous", "PASS x", "SIZE f.txt"});
  engine_.Run(probe, cov_);
  auto resp2 = engine_.LastResponses();
  ASSERT_GE(resp2.size(), 4u);
  EXPECT_EQ(ToString(resp2[3]).substr(0, 3), "550");  // file gone
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  Program p = FtpSession(spec_, {"USER anonymous", "PASS x", "STOR a", "LIST", "QUIT"});
  CoverageMap cov_a;
  CoverageMap cov_b;
  // Warm up once: the first execution after boot restores a snapshot with no
  // dirty pages, so its reset is cheaper than steady state.
  CoverageMap warmup;
  engine_.Run(p, warmup);
  ExecResult a = engine_.Run(p, cov_a);
  ExecResult b = engine_.Run(p, cov_b);
  EXPECT_EQ(a.crash.crashed, b.crash.crashed);
  EXPECT_EQ(cov_a.map(), cov_b.map());
  EXPECT_EQ(a.vtime_ns, b.vtime_ns);
}

TEST_F(EngineTest, IncrementalSnapshotReuseSkipsPrefix) {
  Program p = FtpSession(spec_, {"USER anonymous", "PASS x", "CWD /tmp", "PWD", "NOOP"});
  p.InsertSnapshotAfterPacket(spec_, 2);  // snapshot after CWD

  ExecResult first = engine_.Run(p, cov_);
  EXPECT_TRUE(first.created_incremental);
  EXPECT_FALSE(first.used_incremental);

  // Same prefix, different suffix: must reuse the incremental snapshot and
  // produce the state established by the prefix (logged in, cwd set).
  Program p2 = FtpSession(spec_, {"USER anonymous", "PASS x", "CWD /tmp", "PWD", "SYST"});
  p2.InsertSnapshotAfterPacket(spec_, 2);
  ExecResult second = engine_.Run(p2, cov_);
  EXPECT_TRUE(second.used_incremental);
  EXPECT_FALSE(second.created_incremental);
  auto responses = engine_.LastResponses();
  bool saw_pwd_tmp = false;
  for (const Bytes& r : responses) {
    if (ToString(r).find("\"/tmp\"") != std::string::npos) {
      saw_pwd_tmp = true;
    }
  }
  EXPECT_TRUE(saw_pwd_tmp);
  EXPECT_EQ(engine_.vm_stats().incremental_restores, 1u);

  // The resumed exec ends where a full run from the root ends. Edge maps
  // are not compared: a resumed trace covers only the suffix.
  const NetEmu::State resumed_net = engine_.net().state();
  const std::vector<Bytes> resumed_responses = engine_.LastResponses();
  engine_.DropIncremental();
  CoverageMap full_cov;
  ExecResult full = engine_.Run(p2, full_cov);
  EXPECT_FALSE(full.used_incremental);
  EXPECT_EQ(engine_.net().state(), resumed_net);
  EXPECT_EQ(engine_.LastResponses(), resumed_responses);
}

TEST_F(EngineTest, IncrementalReuseIsFasterThanFullRun) {
  std::vector<std::string> lines = {"USER anonymous", "PASS x"};
  for (int i = 0; i < 20; i++) {
    lines.push_back("NOOP");
  }
  lines.push_back("PWD");
  Program p = FtpSession(spec_, lines);
  p.InsertSnapshotAfterPacket(spec_, lines.size() - 2);

  ExecResult create = engine_.Run(p, cov_);
  ASSERT_TRUE(create.created_incremental);
  ExecResult reuse = engine_.Run(p, cov_);
  ASSERT_TRUE(reuse.used_incremental);
  // The reuse run skips 22 packets of work.
  EXPECT_LT(reuse.vtime_ns, create.vtime_ns / 3);
}

TEST_F(EngineTest, DifferentPrefixInvalidatesIncremental) {
  // Two connections, so a packet can move to the second one while every
  // other op stays the same.
  Builder b(spec_);
  const ValueRef first = b.Connection();
  b.Connection();
  for (const char* line : {"USER anonymous", "PASS x", "NOOP", "NOOP", "PWD"}) {
    b.Packet(first, std::string(line) + "\r\n");
  }
  const Program plain = *b.Build();
  const std::vector<size_t> packets = plain.PacketOpIndices(spec_);
  Program p = plain;
  p.InsertSnapshotAfterPacket(spec_, 3);
  ASSERT_TRUE(engine_.Run(p, cov_).created_incremental);

  Program other_data = plain;
  other_data.ops[packets[0]].data = ToBytes("USER other\r\n");
  other_data.InsertSnapshotAfterPacket(spec_, 3);
  Program other_conn = plain;
  other_conn.ops[packets[1]].args[0] = 1;  // the second connection's value id
  ASSERT_TRUE(spec::Verify(other_conn, spec_).ok());
  other_conn.InsertSnapshotAfterPacket(spec_, 3);
  Program later_marker = plain;
  later_marker.InsertSnapshotAfterPacket(spec_, 4);
  Program before_marker = p;
  before_marker.ops.resize(*p.SnapshotMarkerPos());

  const std::pair<const char*, const Program*> misses[] = {
      {"other data", &other_data},
      {"other connection", &other_conn},
      {"marker one packet later", &later_marker},
      {"ends before the marker", &before_marker},
  };
  for (const auto& [name, input] : misses) {
    ExecResult r = engine_.Run(*input, cov_);
    EXPECT_FALSE(r.used_incremental) << name;
    // Re-capture p's prefix for the next candidate.
    ASSERT_TRUE(engine_.Run(p, cov_).created_incremental) << name;
  }

  // The same prefix with a longer suffix resumes.
  Program longer = p;
  Op extra = longer.ops.back();
  extra.data = ToBytes("SYST\r\n");
  longer.ops.push_back(extra);
  ExecResult r = engine_.Run(longer, cov_);
  EXPECT_TRUE(r.used_incremental);
  EXPECT_FALSE(r.created_incremental);
}

TEST_F(EngineTest, DropIncrementalForcesRootPath) {
  Program p = FtpSession(spec_, {"USER anonymous", "PASS x", "NOOP", "NOOP", "PWD"});
  p.InsertSnapshotAfterPacket(spec_, 3);
  engine_.Run(p, cov_);
  engine_.DropIncremental();
  ExecResult r = engine_.Run(p, cov_);
  EXPECT_FALSE(r.used_incremental);
}

TEST_F(EngineTest, SnapshotMarkerOnSeedWithoutPackets) {
  Builder b(spec_);
  b.Connection();
  Program p = *b.Build();
  p.InsertSnapshotAfterPacket(spec_, 0);  // no packets: no-op
  ExecResult r = engine_.Run(p, cov_);
  EXPECT_FALSE(r.created_incremental);
  EXPECT_FALSE(r.crash.crashed);
}

TEST_F(EngineTest, ConnectionlessInputRunsCleanly) {
  Program empty;
  ExecResult r = engine_.Run(empty, cov_);
  EXPECT_FALSE(r.crash.crashed);
  EXPECT_EQ(r.packets_delivered, 0u);
}

TEST_F(EngineTest, VirtualTimeChargedPerExecution) {
  Program p = FtpSession(spec_, {"USER anonymous", "PASS x"});
  ExecResult r = engine_.Run(p, cov_);
  // At least the snapshot-restore fixed cost must be charged.
  EXPECT_GE(r.vtime_ns, SmallEngineConfig().cost.snapshot_restore_fixed_ns);
}

// The heap header sits at page 16, so a 16-page guest would put it past the
// mapping; the engine must refuse such a guest instead of writing there.
TEST(EngineDeathTest, GuestSmallerThanLayoutDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EngineConfig cfg = SmallEngineConfig();
        cfg.vm.mem_pages = 16;
        const Spec spec = Spec::GenericNetwork();
        NyxEngine engine(cfg, MakeLightFtp, spec);
        engine.Boot();
      },
      "needs at least 17 pages");
}

}  // namespace
}  // namespace nyx
