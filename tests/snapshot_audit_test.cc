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

#include <optional>

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

TEST(SnapshotAuditTest, PinnedPagesReplayDivergenceFree) {
  // A campaign long enough for the pages every exec writes to pin open
  // (GuestMemory::kPinAfter), and for the pin set to be dropped and
  // re-earned at a GuestMemory::kPinWindow boundary. A pinned page never
  // traps, so only its place in the dirty set gets it reverted: the
  // run-twice oracle must stay clean.
  const std::optional<TargetRegistration> reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  NyxFuzzer fuzzer(AuditedConfig(), reg->factory, spec, fcfg);
  for (const Program& s : reg->make_seeds(spec)) {
    fuzzer.AddSeed(s);
  }
  CampaignLimits limits = ShortLimits();
  limits.vtime_seconds = 60.0;
  limits.max_execs = 500;
  CampaignResult result = fuzzer.Run(limits);
  EXPECT_GT(result.pinned_pages, 0u);
  EXPECT_GT(result.root_restores + result.incremental_restores + result.incremental_creates,
            GuestMemory::kPinWindow);
  EXPECT_GT(result.incremental_restores, 0u);
  EXPECT_GT(result.pages_audited, 0u);
  EXPECT_EQ(result.audit_divergences, 0u);
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
