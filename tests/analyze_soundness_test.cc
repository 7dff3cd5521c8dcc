// Soundness property test for the analyzer's rewrites (ISSUE 10 gate).
//
// The static claims in src/spec/analyze.h are only as good as the dynamic
// behaviour they summarize, so this suite throws >= 1000 random programs
// (split across two real protocol targets) at the differential oracle:
//
//  * Canonicalize must preserve the full execution fingerprint — coverage
//    map, site hashes, guest pages, device state, disk, crash identity —
//    under a pinned per-exec RNG (engine::CheckRewriteEquivalence).
//  * TrimProgram's output must keep the coverage fingerprint of the input
//    and replay audit-clean with incremental snapshots in play (audit =
//    run-twice page-hash oracle).
//
// Random programs come from the mutator's own Repair path, so the
// distribution matches what a campaign actually executes: arbitrary op
// soups with sanitized fault plans, not just builder-shaped sessions.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/trim.h"
#include "src/spec/analyze.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

// Random verify-clean program of up to 12 ops: random opcodes, random args,
// random payloads (fault payloads random 4 bytes), then Repair.
Program RandomProgram(const Spec& spec, Rng& rng) {
  Program p;
  const uint64_t nops = rng.Range(1, 12);
  for (uint64_t i = 0; i < nops; i++) {
    Op op;
    op.node_type = rng.Chance(1, 12)
                       ? kSnapshotOpcode
                       : static_cast<uint8_t>(rng.Below(spec.node_type_count()));
    if (!op.is_snapshot()) {
      const NodeTypeDef& node = spec.node_type(op.node_type);
      for (size_t a = 0; a < node.borrows.size() + node.consumes.size(); a++) {
        op.args.push_back(static_cast<uint16_t>(rng.Below(16)));
      }
      if (node.data == DataKind::kBytes) {
        const uint64_t len = rng.Below(24);
        for (uint64_t j = 0; j < len; j++) {
          op.data.push_back(rng.NextByte());
        }
      } else if (node.data == DataKind::kU32) {
        for (int j = 0; j < 4; j++) {
          op.data.push_back(rng.NextByte());
        }
      }
    }
    p.ops.push_back(std::move(op));
  }
  p.Repair(spec);
  return p;
}

class AnalyzeSoundnessTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AnalyzeSoundnessTest, CanonicalizePreservesExecution) {
  auto reg = FindTarget(GetParam());
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();

  EngineConfig cfg;
  cfg.vm.mem_pages = 256;
  cfg.vm.disk_sectors = 256;
  cfg.seed = 7;
  NyxEngine engine(cfg, reg->factory, spec);
  engine.Boot();

  Rng rng(0x5eed0 + std::string(GetParam()).size());
  size_t rewrites = 0;
  for (int trial = 0; trial < 500; trial++) {
    const Program p = RandomProgram(spec, rng);
    const Program canon = spec::Canonicalize(p, spec);
    ASSERT_TRUE(canon.Validate(spec)) << "trial " << trial;
    rewrites += canon.OpsHash(canon.ops.size()) != p.OpsHash(p.ops.size()) ? 1 : 0;
    std::string why;
    ASSERT_TRUE(engine.CheckRewriteEquivalence(p, canon, &why))
        << GetParam() << " trial " << trial << ": " << why;
  }
  // The generator must actually exercise the rewrites (dead faults, ignored
  // args, markers) — an identity-only run would prove nothing.
  EXPECT_GT(rewrites, 50u) << "generator stopped producing canonicalizable programs";
}

TEST_P(AnalyzeSoundnessTest, TrimPreservesCoverageAndRepliesAuditClean) {
  auto reg = FindTarget(GetParam());
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();

  // Audit + incremental snapshots: trim probes replay through incremental
  // restores, and the run-twice oracle cross-checks every restored page.
  EngineConfig cfg;
  cfg.vm.mem_pages = 256;
  cfg.vm.disk_sectors = 256;
  cfg.audit = true;
  cfg.seed = 11;
  NyxEngine engine(cfg, reg->factory, spec);
  engine.Boot();

  Rng rng(0xdeed);
  for (int trial = 0; trial < 30; trial++) {
    Program p = RandomProgram(spec, rng);
    // Bias toward snapshot-bearing inputs: the incremental snapshot only
    // comes into play when the program carries a marker to key on.
    if (!p.SnapshotMarkerPos().has_value() && !p.PacketOpIndices(spec).empty()) {
      p.InsertSnapshotAfterPacket(spec, 0);
    }

    TrimStats stats;
    const Program trimmed = TrimProgram(engine, spec, p, TrimOptions{}, &stats);
    EXPECT_TRUE(trimmed.Validate(spec)) << "trial " << trial;
    EXPECT_LE(stats.ops_after, stats.ops_before) << "trial " << trial;
    EXPECT_EQ(stats.audit_divergences, 0u) << GetParam() << " trial " << trial;

    // The trimmed program's pinned replay matches the original's coverage
    // fingerprint by construction; it must also still satisfy the static
    // verifier end-to-end (wire round trip included).
    const Bytes wire = trimmed.Serialize();
    EXPECT_TRUE(Program::Parse(wire, spec).has_value()) << "trial " << trial;
  }
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(Targets, AnalyzeSoundnessTest,
                         ::testing::Values("lightftp", "kamailio"));

}  // namespace
}  // namespace nyx
