// Evaluation harness: runs (fuzzer × target) campaigns with the paper's
// configurations and aggregates repeated runs the way the paper does
// (medians, mean ± stddev, Mann-Whitney U).

#ifndef SRC_HARNESS_CAMPAIGN_H_
#define SRC_HARNESS_CAMPAIGN_H_

#include <optional>
#include <string>
#include <vector>

#include "src/baselines/baseline.h"
#include "src/fuzz/fuzzer.h"

namespace nyx {

enum class FuzzerKind {
  kAflnet,
  kAflnetNoState,
  kAflnwe,
  kAflppDesock,
  kNyxNone,
  kNyxBalanced,
  kNyxAggressive,
  kIjon,
};

const char* FuzzerKindName(FuzzerKind kind);
// The kind a --policy name selects: none, balanced, aggressive, aflnet,
// aflnet-no-state, aflnwe, desock or ijon. Nullopt for any other name.
std::optional<FuzzerKind> ParseFuzzer(const std::string& name);
bool IsNyxKind(FuzzerKind kind);

// Snapshot-placement policy a Nyx fuzzer kind maps to (kNone for baselines).
PolicyMode NyxPolicyFor(FuzzerKind kind);

struct CampaignSpec {
  std::string target;  // registry name, or "mario-<level>"
  FuzzerKind fuzzer = FuzzerKind::kNyxNone;
  CampaignLimits limits;
  uint64_t seed = 1;
  bool asan = false;
  size_t vm_pages = 1024;  // 4 MiB guest
  // Deterministic fault injection (FuzzerConfig::fault_injection). Nyx kinds
  // only; baselines model stock tools and ignore it.
  bool fault_injection = false;
};

struct CampaignOutcome {
  bool supported = true;
  CampaignResult result;
};

// Runs one campaign. Unsupported combinations (desock on incompatible
// targets) return supported = false.
CampaignOutcome RunCampaign(const CampaignSpec& spec);

// Mario campaign: target is a level name; the goal is solving the level.
CampaignOutcome RunMarioCampaign(const std::string& level, FuzzerKind fuzzer,
                                 double wall_seconds, uint64_t seed);

// Repeats a campaign across seeds 1..runs; returns per-run results (skipping
// unsupported configurations entirely: the vector is empty).
std::vector<CampaignResult> RepeatCampaign(CampaignSpec spec, size_t runs);

// Environment-tunable evaluation scale (documented in EXPERIMENTS.md):
//   NYX_RUNS   repetitions per configuration (default `def_runs`)
//   NYX_VTIME  virtual seconds per campaign  (default `def_vtime`)
size_t EvalRuns(size_t def_runs);
double EvalVtime(double def_vtime);

}  // namespace nyx

#endif  // SRC_HARNESS_CAMPAIGN_H_
