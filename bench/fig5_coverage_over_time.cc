// Figures 5 and 7: median branch coverage over time for every fuzzer on the
// ProFuzzBench targets, emitted as CSV series (fuzzer,target,t_seconds,
// branches) — feed to any plotting tool.
//
// Figure 5 in the paper excludes AFL++/AFLnwe/AFLNet-no-state for
// readability; Figure 7 includes everything. This binary always emits all
// fuzzers (i.e. the Figure 7 data; Figure 5 is a column subset).
//
// Like the ProFuzzBench plots, the first sample is taken shortly after
// start, and the series begins after seed coverage — so curves do not start
// at 0. Default scale: NYX_RUNS=2 medians, NYX_VTIME=120 virtual seconds,
// NYX_FIG5_TARGETS (default: a 2-target subset; "all" for every target).
//
// A second pass runs the fault-injection ablation ("No Peer, no Cry"):
// Nyx-Net-balanced with and without FuzzerConfig::fault_injection on the
// same targets, summarized to BENCH_fault_ablation.json (override:
// NYX_BENCH_OUT) — the with/without coverage delta is the headline number,
// with the two-sided Mann-Whitney U p-value of the per-run branch counts.
//
// Every campaign also has a 3 s wall cap. Configurations with a campaign the
// cap cut short are named on stderr, and the JSON counts the ablation's
// capped campaigns in wall_capped_cells: their numbers depend on host speed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/stats.h"
#include "src/harness/campaign.h"
#include "src/harness/parallel.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

// Names on stderr each configuration with a wall-capped campaign; returns
// how many campaigns the cap cut short.
size_t ReportWallCapped(const std::vector<std::vector<CampaignResult>>& grid,
                        const std::vector<std::string>& labels) {
  size_t capped = 0;
  for (size_t c = 0; c < grid.size(); c++) {
    size_t n = 0;
    for (const CampaignResult& r : grid[c]) {
      n += r.wall_capped ? 1 : 0;
    }
    if (n > 0) {
      fprintf(stderr, "[fig5] wall cap cut %zu of %zu runs of %s\n", n, grid[c].size(),
              labels[c].c_str());
    }
    capped += n;
  }
  return capped;
}

std::vector<std::string> TargetSelection() {
  if (env::StringOr("NYX_FIG5_TARGETS", "") == "all") {
    std::vector<std::string> all;
    for (const auto& reg : AllTargets()) {
      if (reg.in_profuzzbench) {
        all.push_back(reg.name);
      }
    }
    return all;
  }
  return {"lightftp", "kamailio"};
}

}  // namespace
}  // namespace nyx

int main() {
  using namespace nyx;
  const size_t runs = EvalRuns(2);
  const double vtime = EvalVtime(120);
  fprintf(stderr, "Figures 5/7 data: %zu-run median coverage over %.0f virtual seconds\n",
          runs, vtime);
  printf("fuzzer,target,t_vseconds,branches\n");

  const std::vector<FuzzerKind> fuzzers = {
      FuzzerKind::kAflnet,      FuzzerKind::kAflnetNoState, FuzzerKind::kAflnwe,
      FuzzerKind::kAflppDesock, FuzzerKind::kNyxNone,       FuzzerKind::kNyxBalanced,
      FuzzerKind::kNyxAggressive,
  };
  std::vector<std::string> labels;
  std::vector<CampaignSpec> configs;
  for (const std::string& target : TargetSelection()) {
    for (FuzzerKind f : fuzzers) {
      CampaignSpec cs;
      cs.target = target;
      cs.fuzzer = f;
      cs.limits.vtime_seconds = vtime;
      cs.limits.wall_seconds = 3.0;
      configs.push_back(cs);
      labels.push_back(std::string(FuzzerKindName(f)) + "," + target);
    }
  }
  fprintf(stderr, "[fig5] %zu campaigns on %zu jobs...\n", configs.size() * runs, EvalJobs());
  const std::vector<std::vector<CampaignResult>> grid = RunCampaignGrid(configs, runs);
  ReportWallCapped(grid, labels);

  for (size_t c = 0; c < configs.size(); c++) {
    if (grid[c].empty()) {
      continue;  // n/a configuration
    }
    std::vector<TimeSeries> series;
    for (const auto& r : grid[c]) {
      series.push_back(r.coverage_over_time);
    }
    const TimeSeries median = TimeSeries::PointwiseMedian(series, vtime, vtime / 60.0);
    fputs(median.ToCsv(labels[c]).c_str(), stdout);
  }

  // ---- Fault-injection ablation ----
  // Same targets, Nyx-Net-balanced only, fault mutations off vs on. The
  // fault dimension exists to reach error-handling code plain traffic never
  // exercises, so the expectation is coverage(on) >= coverage(off).
  const std::vector<std::string> ablation_targets = TargetSelection();
  std::vector<CampaignSpec> fconfigs;
  std::vector<std::string> flabels;
  for (const std::string& target : ablation_targets) {
    for (bool faults : {false, true}) {
      flabels.push_back(target + (faults ? ",with-faults" : ",no-faults"));
      CampaignSpec cs;
      cs.target = target;
      cs.fuzzer = FuzzerKind::kNyxBalanced;
      cs.limits.vtime_seconds = vtime;
      cs.limits.wall_seconds = 3.0;
      cs.fault_injection = faults;
      fconfigs.push_back(cs);
    }
  }
  fprintf(stderr, "[fig5] fault ablation: %zu campaigns...\n", fconfigs.size() * runs);
  const std::vector<std::vector<CampaignResult>> fgrid = RunCampaignGrid(fconfigs, runs);
  const size_t wall_capped_cells = ReportWallCapped(fgrid, flabels);

  auto branches = [](const std::vector<CampaignResult>& results) {
    std::vector<double> cov;
    for (const auto& r : results) {
      cov.push_back(static_cast<double>(r.branch_coverage));
    }
    return cov;
  };

  const std::string out_path = env::StringOr("NYX_BENCH_OUT", "BENCH_fault_ablation.json");
  FILE* out = fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "[fig5] could not write %s\n", out_path.c_str());
    return 1;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"fig5_fault_ablation\",\n");
  fprintf(out, "  \"fuzzer\": \"Nyx-Net-balanced\",\n");
  fprintf(out, "  \"runs\": %zu,\n", runs);
  fprintf(out, "  \"vtime_seconds\": %.1f,\n", vtime);
  fprintf(out, "  \"jobs\": %zu,\n", EvalJobs());
  fprintf(out, "  \"wall_capped_cells\": %zu,\n", wall_capped_cells);
  fprintf(out, "  \"targets\": {\n");
  for (size_t t = 0; t < ablation_targets.size(); t++) {
    const std::vector<CampaignResult>& off = fgrid[t * 2];
    const std::vector<CampaignResult>& on = fgrid[t * 2 + 1];
    const std::vector<double> branches_off = branches(off);
    const std::vector<double> branches_on = branches(on);
    const double cov_off = off.empty() ? 0.0 : Median(branches_off);
    const double cov_on = on.empty() ? 0.0 : Median(branches_on);
    const double p_value = MannWhitneyUPValue(branches_off, branches_on);
    uint64_t faults = 0;
    uint64_t faulted_bytes = 0;
    for (const auto& r : on) {
      faults += r.faults_injected;
      faulted_bytes += r.faulted_bytes;
    }
    fprintf(out,
            "    \"%s\": {\"branches_no_faults\": %.1f, \"branches_with_faults\": %.1f, "
            "\"delta\": %.1f, \"p_value\": %.4f, \"faults_injected\": %llu, "
            "\"faulted_bytes\": %llu}%s\n",
            ablation_targets[t].c_str(), cov_off, cov_on, cov_on - cov_off, p_value,
            static_cast<unsigned long long>(faults),
            static_cast<unsigned long long>(faulted_bytes),
            t + 1 < ablation_targets.size() ? "," : "");
    fprintf(stderr,
            "[fig5] %s: %.0f branches without faults, %.0f with (delta %+.0f, p = %.4f)\n",
            ablation_targets[t].c_str(), cov_off, cov_on, cov_on - cov_off, p_value);
  }
  fprintf(out, "  }\n");
  fprintf(out, "}\n");
  fclose(out);
  fprintf(stderr, "[fig5] wrote %s\n", out_path.c_str());
  return 0;
}
