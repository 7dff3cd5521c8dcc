#include "src/harness/campaign.h"

#include <cstdlib>

#include "src/common/env.h"
#include "src/harness/parallel.h"
#include "src/mario/mario_target.h"
#include "src/targets/registry.h"

namespace nyx {

const char* FuzzerKindName(FuzzerKind kind) {
  switch (kind) {
    case FuzzerKind::kAflnet:
      return "AFLNet";
    case FuzzerKind::kAflnetNoState:
      return "AFLNet-no-state";
    case FuzzerKind::kAflnwe:
      return "AFLnwe";
    case FuzzerKind::kAflppDesock:
      return "AFL++";
    case FuzzerKind::kNyxNone:
      return "Nyx-Net-none";
    case FuzzerKind::kNyxBalanced:
      return "Nyx-Net-balanced";
    case FuzzerKind::kNyxAggressive:
      return "Nyx-Net-aggressive";
    case FuzzerKind::kIjon:
      return "Ijon";
  }
  return "?";
}

std::optional<FuzzerKind> ParseFuzzer(const std::string& name) {
  if (name == "none") return FuzzerKind::kNyxNone;
  if (name == "balanced") return FuzzerKind::kNyxBalanced;
  if (name == "aggressive") return FuzzerKind::kNyxAggressive;
  if (name == "aflnet") return FuzzerKind::kAflnet;
  if (name == "aflnet-no-state") return FuzzerKind::kAflnetNoState;
  if (name == "aflnwe") return FuzzerKind::kAflnwe;
  if (name == "desock") return FuzzerKind::kAflppDesock;
  if (name == "ijon") return FuzzerKind::kIjon;
  return std::nullopt;
}

bool IsNyxKind(FuzzerKind kind) {
  return kind == FuzzerKind::kNyxNone || kind == FuzzerKind::kNyxBalanced ||
         kind == FuzzerKind::kNyxAggressive;
}

PolicyMode NyxPolicyFor(FuzzerKind kind) {
  switch (kind) {
    case FuzzerKind::kNyxBalanced:
      return PolicyMode::kBalanced;
    case FuzzerKind::kNyxAggressive:
      return PolicyMode::kAggressive;
    default:
      return PolicyMode::kNone;
  }
}

namespace {

BaselineKind ToBaselineKind(FuzzerKind kind) {
  switch (kind) {
    case FuzzerKind::kAflnetNoState:
      return BaselineKind::kAflnetNoState;
    case FuzzerKind::kAflnwe:
      return BaselineKind::kAflnwe;
    case FuzzerKind::kAflppDesock:
      return BaselineKind::kAflppDesock;
    case FuzzerKind::kIjon:
      return BaselineKind::kIjon;
    case FuzzerKind::kAflnet:
    default:
      return BaselineKind::kAflnet;
  }
}

CampaignOutcome RunWith(const Spec& spec, TargetFactory factory,
                        const std::vector<Program>& seeds, const CampaignSpec& cs,
                        uint64_t per_byte_extra_ns = 0) {
  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = cs.vm_pages;
  engine_cfg.vm.disk_sectors = 512;
  engine_cfg.asan = cs.asan;
  engine_cfg.seed = cs.seed;

  CampaignOutcome outcome;
  if (IsNyxKind(cs.fuzzer)) {
    FuzzerConfig fcfg;
    fcfg.policy = NyxPolicyFor(cs.fuzzer);
    fcfg.seed = cs.seed;
    fcfg.fault_injection = cs.fault_injection;
    NyxFuzzer fuzzer(engine_cfg, factory, spec, fcfg);
    for (const Program& s : seeds) {
      fuzzer.AddSeed(s);
    }
    outcome.result = fuzzer.Run(cs.limits);
  } else {
    BaselineConfig bcfg;
    bcfg.kind = ToBaselineKind(cs.fuzzer);
    bcfg.seed = cs.seed;
    bcfg.per_byte_extra_ns = per_byte_extra_ns;
    BaselineFuzzer fuzzer(engine_cfg, factory, spec, bcfg);
    if (!fuzzer.supported()) {
      outcome.supported = false;
      return outcome;
    }
    for (const Program& s : seeds) {
      fuzzer.AddSeed(s);
    }
    outcome.result = fuzzer.Run(cs.limits);
  }
  return outcome;
}

}  // namespace

CampaignOutcome RunCampaign(const CampaignSpec& cs) {
  auto reg = FindTarget(cs.target);
  if (!reg.has_value()) {
    CampaignOutcome outcome;
    outcome.supported = false;
    return outcome;
  }
  const Spec spec = reg->make_spec();
  return RunWith(spec, reg->factory, reg->make_seeds(spec), cs);
}

CampaignOutcome RunMarioCampaign(const std::string& level, FuzzerKind fuzzer,
                                 double wall_seconds, uint64_t seed) {
  const Spec spec = Spec::GenericNetwork();
  const LevelDef* lv = FindLevel(level);
  CampaignSpec cs;
  cs.fuzzer = fuzzer;
  cs.seed = seed;
  cs.limits.vtime_seconds = 24.0 * 3600;  // a virtual day
  cs.limits.wall_seconds = wall_seconds;
  cs.limits.ijon_goal = static_cast<uint64_t>(lv->length) * kSub;
  TargetFactory factory = [level] { return MakeMarioTarget(level); };
  std::vector<Program> seeds = {MarioSeed(spec, *lv, 64)};
  const uint64_t extra =
      fuzzer == FuzzerKind::kIjon ? kMarioFrameNsForkServer - kMarioFrameNsEmulated : 0;
  return RunWith(spec, factory, seeds, cs, extra);
}

std::vector<CampaignResult> RepeatCampaign(CampaignSpec spec, size_t runs) {
  // Fans out across the NYX_JOBS pool; every run owns its Vm/RNG/clock and
  // carries its own seed, so results match the old serial loop exactly.
  std::vector<std::vector<CampaignResult>> grid = RunCampaignGrid({spec}, runs);
  return std::move(grid.front());
}

size_t EvalRuns(size_t def_runs) { return env::Runs(def_runs); }

double EvalVtime(double def_vtime) { return env::Vtime(def_vtime); }

}  // namespace nyx
