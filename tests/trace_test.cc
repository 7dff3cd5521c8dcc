// Tests that the phase profiler (src/common/telemetry.h) observes a whole
// audited campaign. Its only output is the process-wide phase.<name>_ns
// histograms, so each check compares a histogram's sample count before and
// after the campaign rather than its absolute value.

#include <gtest/gtest.h>

#include <array>

#include "src/common/telemetry.h"
#include "src/fuzz/fuzzer.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

using telemetry::Phase;

std::array<uint64_t, telemetry::kPhaseCount> PhaseSamples() {
  std::array<uint64_t, telemetry::kPhaseCount> out{};
  for (size_t i = 0; i < telemetry::kPhaseCount; i++) {
    out[i] = telemetry::PhaseHistogram(static_cast<Phase>(i))->Total();
  }
  return out;
}

// Telemetry is observation-only: an audited campaign must stay
// divergence-free with the phase profiler running, and every exec must end
// with the phase stack empty — the invariant behind the
// "telemetry.phase_timers" ephemeral that the audited engine checks per exec.
// Every phase must record samples: a phase that no campaign records is dead.
TEST(PhaseTraceTest, AuditedCampaignCoversEveryPhase) {
  auto reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  EngineConfig cfg;
  cfg.vm.mem_pages = 256;
  cfg.vm.disk_sectors = 256;
  cfg.audit = true;
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  CampaignLimits limits;
  limits.vtime_seconds = 1.0;
  limits.max_execs = 25;
  limits.wall_seconds = 60.0;

  telemetry::SetTelemetryEnabled(true);
  const auto before = PhaseSamples();
  NyxFuzzer fuzzer(cfg, reg->factory, spec, fcfg);
  for (const Program& s : reg->make_seeds(spec)) {
    fuzzer.AddSeed(s);
  }
  const CampaignResult result = fuzzer.Run(limits);
  const auto after = PhaseSamples();
  telemetry::SetTelemetryEnabled(false);

  EXPECT_GT(result.pages_audited, 0u);
  EXPECT_EQ(result.audit_divergences, 0u);
  EXPECT_EQ(telemetry::PhaseDepth(), 0u);
  for (size_t i = 0; i < telemetry::kPhaseCount; i++) {
    EXPECT_GT(after[i], before[i]) << telemetry::PhaseName(static_cast<Phase>(i));
  }
}

}  // namespace
}  // namespace nyx
