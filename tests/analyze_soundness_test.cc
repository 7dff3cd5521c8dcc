// Soundness property test for corpus trimming: TrimProgram's output must
// keep the coverage fingerprint of its marker-stripped input, stay
// Validate-clean and wire round-trippable, and replay audit-clean with
// incremental snapshots in play (audit = run-twice page-hash oracle).
//
// Random programs come from the mutator's own Repair path, so the
// distribution matches what a campaign actually executes: arbitrary op
// soups with sanitized fault plans, not just builder-shaped sessions.

#include <gtest/gtest.h>

#include <tuple>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/fuzz/engine.h"
#include "src/fuzz/trim.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"
#include "src/spec/verify.h"
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

// Coverage and outcome of one execution: what the trim oracle compares.
std::tuple<uint64_t, uint64_t, bool, uint32_t, uint64_t> Observe(NyxEngine& engine,
                                                                 const Program& p) {
  CoverageMap cov;
  const ExecResult r = engine.Run(p, cov);
  return {Fnv1a64(cov.map().data(), cov.map().size()),
          Fnv1a64(cov.sites_hit().data(), cov.sites_hit().size()), r.crash.crashed,
          r.crash.crash_id, r.ijon_max};
}

class AnalyzeSoundnessTest : public ::testing::TestWithParam<const char*> {};

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
  int shrunk = 0;
  for (int trial = 0; trial < 30; trial++) {
    Program p = RandomProgram(spec, rng);
    // Bias toward snapshot-bearing inputs: the incremental snapshot only
    // comes into play when the program carries a marker to key on.
    if (!p.SnapshotMarkerPos().has_value() && !p.PacketOpIndices(spec).empty()) {
      p.InsertSnapshotAfterPacket(spec, 0);
    }

    TrimStats stats;
    const Program trimmed = TrimProgram(engine, spec, p, &stats);
    EXPECT_TRUE(spec::Verify(trimmed, spec).ok()) << "trial " << trial;
    EXPECT_LE(stats.ops_after, stats.ops_before) << "trial " << trial;
    EXPECT_EQ(stats.ops_after, trimmed.ops.size()) << "trial " << trial;
    EXPECT_EQ(stats.audit_divergences, 0u) << GetParam() << " trial " << trial;
    shrunk += stats.ops_after < stats.ops_before ? 1 : 0;

    // A fresh execution of the trimmed program reproduces the marker-
    // stripped input's coverage and outcome; it must also still satisfy
    // the static verifier end-to-end (wire round trip included).
    Program stripped = p;
    stripped.StripSnapshotMarkers();
    EXPECT_EQ(Observe(engine, trimmed), Observe(engine, stripped)) << "trial " << trial;
    const Bytes wire = trimmed.Serialize();
    EXPECT_TRUE(Program::Parse(wire, spec).has_value()) << "trial " << trial;
  }
  // Random op soups carry ops the target ignores: trimming must find some.
  EXPECT_GT(shrunk, 0);
  EXPECT_EQ(engine.auditor()->stats().divergences, 0u);
}

INSTANTIATE_TEST_SUITE_P(Targets, AnalyzeSoundnessTest,
                         ::testing::Values("lightftp", "kamailio"));

}  // namespace
}  // namespace nyx
