// Tests for the cross-restore determinism auditor (src/fuzz/audit.h).
//
// Positive direction: every registered target, under every snapshot policy,
// must replay divergence-free — the registry-built aux blob plus the VM
// restore really does bring back all state. Negative direction: a target
// that deliberately leaks mutable host-side state (the contract violation
// the auditor exists to catch) must be flagged, with the divergence
// attributed to UNREGISTERED (behavioural-only leak) or to the owning guest
// region (leak written into guest memory).

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "src/common/telemetry.h"
#include "src/common/trace.h"
#include "src/fuzz/fuzzer.h"
#include "src/mario/mario_target.h"
#include "src/spec/builder.h"
#include "src/targets/registry.h"
#include "src/vm/guest_memory.h"

namespace nyx {
namespace {

EngineConfig AuditedConfig() {
  EngineConfig cfg;
  cfg.vm.mem_pages = 256;
  cfg.vm.disk_sectors = 256;
  cfg.audit = true;
  return cfg;
}

// Short audited campaign: enough executions to exercise root restores,
// incremental creation and reuse under the policy, at tripled per-exec cost.
CampaignLimits ShortLimits() {
  CampaignLimits limits;
  limits.vtime_seconds = 1.0;
  limits.max_execs = 25;
  limits.wall_seconds = 60.0;
  return limits;
}

TEST(SnapshotAuditTest, AllTargetsReplayDivergenceFree) {
  for (const TargetRegistration& reg : AllTargets()) {
    const Spec spec = reg.make_spec();
    for (PolicyMode policy :
         {PolicyMode::kNone, PolicyMode::kBalanced, PolicyMode::kAggressive}) {
      FuzzerConfig fcfg;
      fcfg.policy = policy;
      NyxFuzzer fuzzer(AuditedConfig(), reg.factory, spec, fcfg);
      for (const Program& s : reg.make_seeds(spec)) {
        fuzzer.AddSeed(s);
      }
      CampaignResult result = fuzzer.Run(ShortLimits());
      EXPECT_GT(result.pages_audited, 0u) << reg.name;
      EXPECT_EQ(result.audit_divergences, 0u)
          << reg.name << " policy " << static_cast<int>(policy) << ": "
          << (fuzzer.engine().auditor()->divergences().empty()
                  ? std::string("?")
                  : fuzzer.engine().auditor()->divergences()[0].source + "/" +
                        fuzzer.engine().auditor()->divergences()[0].owner);
    }
  }
}

TEST(SnapshotAuditTest, MarioReplaysDivergenceFree) {
  const Spec spec = Spec::GenericNetwork();
  const LevelDef& lv = AllLevels()[0];
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  NyxFuzzer fuzzer(
      AuditedConfig(), [&lv] { return MakeMarioTarget(lv.name); }, spec, fcfg);
  fuzzer.AddSeed(MarioSeed(spec, lv, 32));
  CampaignResult result = fuzzer.Run(ShortLimits());
  EXPECT_GT(result.pages_audited, 0u);
  EXPECT_EQ(result.audit_divergences, 0u);
}

TEST(SnapshotAuditTest, CrossRestoreAuditRunsAndPasses) {
  // A program with a snapshot marker makes the audited engine run it three
  // times: normal, replay, and resume-through-the-incremental-snapshot.
  const Spec spec = Spec::GenericNetwork();
  NyxEngine engine(AuditedConfig(), MakeLightFtp, spec);
  engine.Boot();

  Builder b(spec);
  ValueRef con = b.Connection();
  for (const char* line : {"USER anonymous", "PASS x", "CWD /tmp", "PWD"}) {
    b.Packet(con, std::string(line) + "\r\n");
  }
  Program p = *b.Build();
  p.InsertSnapshotAfterPacket(spec, 2);

  CoverageMap cov;
  ExecResult r = engine.Run(p, cov);
  EXPECT_FALSE(r.crash.crashed);
  ASSERT_NE(engine.auditor(), nullptr);
  EXPECT_EQ(engine.auditor()->stats().programs_audited, 1u);
  EXPECT_EQ(engine.auditor()->stats().cross_audits, 1u);
  EXPECT_GT(engine.auditor()->stats().pages_audited, 0u);
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);

  // Audit replays must not inflate the engine's exec counter.
  EXPECT_EQ(engine.execs(), 1u);
}

TEST(SnapshotAuditTest, DeepSnapshotTreeReplaysDivergenceFree) {
  // With snapshot_depth > 1 the engine pushes further snapshots at packet
  // boundaries past the marker and later resumes from the deepest matching
  // link. Every stage of that machinery must stay audit-clean: the replay,
  // the cross-restore through the deepest snapshot, and a later run of the
  // same input resuming at depth >= 2.
  const Spec spec = Spec::GenericNetwork();
  EngineConfig cfg = AuditedConfig();
  cfg.vm.snapshot_depth = 3;
  NyxEngine engine(cfg, MakeLightFtp, spec);
  engine.Boot();

  Builder b(spec);
  ValueRef con = b.Connection();
  for (const char* line :
       {"USER anonymous", "PASS x", "CWD /tmp", "PWD", "LIST", "NOOP"}) {
    b.Packet(con, std::string(line) + "\r\n");
  }
  Program p = *b.Build();
  p.InsertSnapshotAfterPacket(spec, 1);

  CoverageMap cov;
  ExecResult r1 = engine.Run(p, cov);
  EXPECT_FALSE(r1.crash.crashed);
  EXPECT_TRUE(r1.created_incremental);
  EXPECT_EQ(engine.vm().max_valid_depth(), 3u);
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);
  EXPECT_GE(engine.auditor()->stats().cross_audits, 1u);

  // Same input again: the primary run must shortcut through the deepest
  // snapshot, and the audited replay must still match.
  cov.Reset();
  ExecResult r2 = engine.Run(p, cov);
  EXPECT_TRUE(r2.used_incremental);
  EXPECT_GT(engine.vm_stats().deep_restores, 0u);
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);
}

TEST(SnapshotAuditTest, PinnedPagesReplayDivergenceFree) {
  // Campaigns long enough for the pages every exec writes to pin open
  // (GuestMemory::kPinAfter), and for the pin set to be dropped and
  // re-earned at a GuestMemory::kPinWindow boundary. A pinned page never
  // traps, so only its place in the dirty set gets it reverted: the
  // run-twice oracle must stay clean at the classic depth and in a depth-3
  // tree.
  const std::optional<TargetRegistration> reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  for (size_t depth : {1, 3}) {
    EngineConfig cfg = AuditedConfig();
    cfg.vm.snapshot_depth = depth;
    FuzzerConfig fcfg;
    fcfg.policy = PolicyMode::kBalanced;
    NyxFuzzer fuzzer(cfg, reg->factory, spec, fcfg);
    for (const Program& s : reg->make_seeds(spec)) {
      fuzzer.AddSeed(s);
    }
    CampaignLimits limits = ShortLimits();
    limits.vtime_seconds = 60.0;
    limits.max_execs = 500;
    CampaignResult result = fuzzer.Run(limits);
    EXPECT_GT(result.pinned_pages, 0u) << "depth " << depth;
    EXPECT_GT(result.root_restores + result.incremental_restores + result.incremental_creates,
              GuestMemory::kPinWindow)
        << "depth " << depth;
    EXPECT_GT(result.incremental_restores, 0u) << "depth " << depth;
    EXPECT_GT(result.pages_audited, 0u) << "depth " << depth;
    EXPECT_EQ(result.audit_divergences, 0u) << "depth " << depth;
  }
}

TEST(SnapshotAuditTest, PartialChainMatchThenRepushStaysDivergenceFree) {
  // Regression test for the case the campaign auditor caught: a mutated
  // input that shares only the marker prefix matches chain depth 1, then
  // auto-pushes *new* depth-2/3 snapshots mid-run. The audit replay must
  // be forced onto the pre-run chain — otherwise it matches the links the
  // primary run just recorded, resumes deeper than the primary did, and
  // coverage/result fingerprints diverge.
  const Spec spec = Spec::GenericNetwork();
  EngineConfig cfg = AuditedConfig();
  cfg.vm.snapshot_depth = 3;
  NyxEngine engine(cfg, MakeLightFtp, spec);
  engine.Boot();

  auto build = [&](std::initializer_list<const char*> tail) {
    Builder b(spec);
    ValueRef con = b.Connection();
    b.Packet(con, "USER anonymous\r\n");
    b.Packet(con, "PASS x\r\n");
    for (const char* line : tail) {
      b.Packet(con, std::string(line) + "\r\n");
    }
    Program p = *b.Build();
    p.InsertSnapshotAfterPacket(spec, 1);
    return p;
  };

  // First input builds a full depth-3 chain past the marker.
  Program first = build({"CWD /tmp", "PWD", "LIST"});
  CoverageMap cov;
  ExecResult r1 = engine.Run(first, cov);
  EXPECT_TRUE(r1.created_incremental);
  EXPECT_EQ(engine.vm().max_valid_depth(), 3u);
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);

  // Second input diverges right after the marker packet: its primary run
  // matches depth 1 only, then pushes fresh deeper snapshots.
  Program second = build({"NOOP", "PWD", "LIST"});
  cov.Reset();
  ExecResult r2 = engine.Run(second, cov);
  EXPECT_TRUE(r2.used_incremental);
  EXPECT_TRUE(r2.created_incremental);  // re-pushed depths 2..3 mid-run
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);

  // And the second input again: now a full-depth match.
  cov.Reset();
  ExecResult r3 = engine.Run(second, cov);
  EXPECT_TRUE(r3.used_incremental);
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);
}

// A target that violates the snapshot contract on purpose: `calls_` lives in
// the host-side C++ object, so no snapshot restore ever resets it, and the
// coverage it drives differs between a run and its replay. All *registered*
// state stays clean, so the auditor must attribute the divergence to
// UNREGISTERED — the signature of state the registry never heard of.
class LeakyCounterTarget final : public Target {
 public:
  TargetInfo info() const override {
    TargetInfo ti;
    ti.name = "leaky-counter";
    ti.transport = SockKind::kDgram;
    ti.port = 1;
    return ti;
  }
  void Init(GuestContext& ctx) override {
    int fd = ctx.net().Socket(SockKind::kDgram);
    ctx.net().Bind(fd, 1);
    *ctx.State<int>() = fd;
  }
  void Step(GuestContext& ctx) override {
    uint8_t buf[8];
    while (ctx.net().Recv(*ctx.State<int>(), buf, sizeof(buf)) > 0) {
      ctx.Cov(100 + (calls_++ & 0xff));
    }
  }

 private:
  uint32_t calls_ = 0;  // leaked: survives restores, diverges replays
};

TEST(SnapshotAuditTest, UnregisteredHostStateIsFlagged) {
  const Spec spec = Spec::GenericNetwork();
  NyxEngine engine(
      AuditedConfig(), [] { return std::unique_ptr<Target>(new LeakyCounterTarget()); },
      spec);
  engine.Boot();

  Builder b(spec);
  b.Packet(b.Connection(), "x");
  CoverageMap cov;
  engine.Run(*b.Build(), cov);

  ASSERT_NE(engine.auditor(), nullptr);
  ASSERT_GT(engine.auditor()->stats().divergences, 0u);
  bool saw_unregistered = false;
  for (const auto& d : engine.auditor()->divergences()) {
    saw_unregistered =
        saw_unregistered ||
        (d.source == "coverage" && d.owner == SnapshotStateRegistry::kUnregistered);
  }
  EXPECT_TRUE(saw_unregistered);
}

// Variant that writes the leaked counter into guest scratch memory: the
// divergence is now visible as a differing page, and the page-granular walk
// must attribute it to the named region that owns it.
class LeakyScratchTarget final : public Target {
 public:
  TargetInfo info() const override {
    TargetInfo ti;
    ti.name = "leaky-scratch";
    ti.transport = SockKind::kDgram;
    ti.port = 1;
    return ti;
  }
  void Init(GuestContext& ctx) override {
    int fd = ctx.net().Socket(SockKind::kDgram);
    ctx.net().Bind(fd, 1);
    *ctx.State<int>() = fd;
  }
  void Step(GuestContext& ctx) override {
    uint8_t buf[8];
    while (ctx.net().Recv(*ctx.State<int>(), buf, sizeof(buf)) > 0) {
      ctx.TouchScratch(1, static_cast<uint8_t>(++calls_));
      ctx.Cov(7);
    }
  }

 private:
  uint32_t calls_ = 0;
};

TEST(SnapshotAuditTest, GuestPageDivergenceIsAttributedToItsRegion) {
  const Spec spec = Spec::GenericNetwork();
  NyxEngine engine(
      AuditedConfig(), [] { return std::unique_ptr<Target>(new LeakyScratchTarget()); },
      spec);
  engine.Boot();

  Builder b(spec);
  b.Packet(b.Connection(), "x");
  CoverageMap cov;
  engine.Run(*b.Build(), cov);

  ASSERT_NE(engine.auditor(), nullptr);
  ASSERT_GT(engine.auditor()->stats().divergences, 0u);
  bool saw_scratch_page = false;
  for (const auto& d : engine.auditor()->divergences()) {
    saw_scratch_page =
        saw_scratch_page || (d.source == "guest-page" && d.owner == "guest.scratch");
  }
  EXPECT_TRUE(saw_scratch_page);
}

TEST(SnapshotAuditTest, AuditCountersReachCampaignResult) {
  auto reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  NyxFuzzer fuzzer(AuditedConfig(), reg->factory, spec, fcfg);
  for (const Program& s : reg->make_seeds(spec)) {
    fuzzer.AddSeed(s);
  }
  CampaignResult result = fuzzer.Run(ShortLimits());
  EXPECT_GT(result.pages_audited, 0u);
  EXPECT_EQ(result.audit_divergences, 0u);
  EXPECT_EQ(result.pages_audited, fuzzer.engine().auditor()->stats().pages_audited);
}

// Telemetry and tracing are observation-only: an audited campaign must stay
// divergence-free with the phase profiler and trace recorder running, and
// every exec must end with the phase stack empty — the invariant behind the
// "telemetry.phase_timers" ephemeral that CheckEphemeral verifies per exec.
TEST(SnapshotAuditTest, DivergenceFreeWithTracingEnabled) {
  const std::string trace_path = ::testing::TempDir() + "audit_trace.json";
  trace::SetTracePathForTest(trace_path);
  telemetry::SetTelemetryEnabled(true);

  auto reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  NyxFuzzer fuzzer(AuditedConfig(), reg->factory, spec, fcfg);
  for (const Program& s : reg->make_seeds(spec)) {
    fuzzer.AddSeed(s);
  }
  CampaignResult result = fuzzer.Run(ShortLimits());

  EXPECT_GT(result.pages_audited, 0u);
  EXPECT_EQ(result.audit_divergences, 0u);
  EXPECT_EQ(telemetry::PhaseDepth(), 0u);
  // The profiler actually observed the campaign, and the recorder kept the
  // events and can flush a timeline.
  EXPECT_GT(telemetry::PhaseHistogram(telemetry::Phase::kGuestRun)->Total(), 0u);
  EXPECT_GT(trace::GetRecorderStats().recorded, 0u);
  EXPECT_TRUE(trace::WriteTrace(trace_path));

  telemetry::SetTelemetryEnabled(false);
  trace::SetTracePathForTest("");
  remove(trace_path.c_str());
}

TEST(SnapshotAuditTest, AuditOffByDefault) {
  EngineConfig cfg;
  cfg.vm.mem_pages = 64;
  cfg.audit = false;
  const Spec spec = Spec::GenericNetwork();
  NyxEngine engine(cfg, MakeLightFtp, spec);
  EXPECT_EQ(engine.auditor(), nullptr);
}

}  // namespace
}  // namespace nyx
