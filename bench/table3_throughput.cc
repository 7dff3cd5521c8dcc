// Table 3: test throughput (executions per virtual second, mean ± stddev
// across repeated runs) for every fuzzer on every ProFuzzBench target.
//
// "It can be seen that aggressively using incremental snapshots drastically
// gives the highest test throughput in all cases. However, the biggest gains
// come from the root snapshot avoiding initialization all together."
//
// Throughput stabilizes quickly, so the default budget is shorter than
// Table 2's (NYX_VTIME=20 virtual seconds, NYX_RUNS=2). All campaigns fan
// out across NYX_JOBS workers. Besides the text table, a machine-readable
// summary is written to BENCH_throughput.json (override: NYX_BENCH_OUT) so
// CI can track throughput over time.
//
// Every campaign also has a 3 s wall cap. A cell with a campaign the cap cut
// short is marked '*' in the table and counted in the JSON's
// wall_capped_cells: its virtual-time numbers depend on host speed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/stats.h"
#include "src/common/telemetry.h"
#include "src/harness/campaign.h"
#include "src/harness/parallel.h"
#include "src/harness/phase_dump.h"
#include "src/harness/table.h"
#include "src/targets/registry.h"

int main() {
  using namespace nyx;
  const size_t runs = EvalRuns(2);
  const double vtime = EvalVtime(20);
  printf("Table 3: executions per virtual second, mean +/- stddev (%zu runs x %.0f vsec)\n\n",
         runs, vtime);

  const std::vector<FuzzerKind> fuzzers = {
      FuzzerKind::kAflnet,      FuzzerKind::kAflnetNoState, FuzzerKind::kAflnwe,
      FuzzerKind::kAflppDesock, FuzzerKind::kNyxNone,       FuzzerKind::kNyxBalanced,
      FuzzerKind::kNyxAggressive,
  };
  std::vector<std::string> header = {"Target"};
  for (FuzzerKind f : fuzzers) {
    header.push_back(FuzzerKindName(f));
  }
  TextTable table(header);

  std::vector<std::string> row_targets;
  std::vector<CampaignSpec> configs;
  for (const auto& reg : AllTargets()) {
    if (!reg.in_profuzzbench) {
      continue;
    }
    row_targets.push_back(reg.name);
    for (FuzzerKind f : fuzzers) {
      CampaignSpec cs;
      cs.target = reg.name;
      cs.fuzzer = f;
      cs.limits.vtime_seconds = vtime;
      cs.limits.wall_seconds = 3.0;
      configs.push_back(cs);
    }
  }
  const size_t jobs = EvalJobs();
  fprintf(stderr, "[table3] %zu campaigns on %zu jobs...\n", configs.size() * runs, jobs);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<std::vector<CampaignResult>> grid = RunCampaignGrid(configs, runs);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  // Per-fuzzer aggregation across every supported (target, run) cell.
  std::vector<std::vector<double>> per_fuzzer_eps(fuzzers.size());
  uint64_t pages_audited = 0;
  uint64_t audit_divergences = 0;
  size_t wall_capped_cells = 0;
  for (size_t t = 0; t < row_targets.size(); t++) {
    std::vector<std::string> row = {row_targets[t]};
    for (size_t i = 0; i < fuzzers.size(); i++) {
      const std::vector<CampaignResult>& results = grid[t * fuzzers.size() + i];
      if (results.empty()) {
        row.push_back("-");
        continue;
      }
      std::vector<double> eps;
      bool capped = false;
      for (const auto& r : results) {
        eps.push_back(r.execs_per_vsecond);
        per_fuzzer_eps[i].push_back(r.execs_per_vsecond);
        pages_audited += r.pages_audited;
        audit_divergences += r.audit_divergences;
        wall_capped_cells += r.wall_capped ? 1 : 0;
        capped |= r.wall_capped;
      }
      row.push_back(Fmt(Mean(eps), 1) + " +/- " + Fmt(StdDev(eps), 1) + (capped ? "*" : ""));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  if (wall_capped_cells > 0) {
    printf("\n* the 3 s wall cap cut %zu campaign(s) short; those cells depend on host speed\n",
           wall_capped_cells);
  }

  // Machine-readable summary for CI trend tracking.
  const std::string out_path = env::StringOr("NYX_BENCH_OUT", "BENCH_throughput.json");
  FILE* out = fopen(out_path.c_str(), "w");
  if (out != nullptr) {
    fprintf(out, "{\n");
    fprintf(out, "  \"bench\": \"table3_throughput\",\n");
    fprintf(out, "  \"runs\": %zu,\n", runs);
    fprintf(out, "  \"vtime_seconds\": %.1f,\n", vtime);
    fprintf(out, "  \"jobs\": %zu,\n", jobs);
    fprintf(out, "  \"wall_seconds\": %.3f,\n", wall_seconds);
    fprintf(out, "  \"wall_capped_cells\": %zu,\n", wall_capped_cells);
    fprintf(out, "  \"execs_per_vsecond\": {\n");
    for (size_t i = 0; i < fuzzers.size(); i++) {
      fprintf(out, "    \"%s\": {\"mean\": %.1f, \"stddev\": %.1f, \"cells\": %zu}%s\n",
              FuzzerKindName(fuzzers[i]), Mean(per_fuzzer_eps[i]), StdDev(per_fuzzer_eps[i]),
              per_fuzzer_eps[i].size(), i + 1 < fuzzers.size() ? "," : "");
    }
    fprintf(out, "  }\n");
    fprintf(out, "}\n");
    fclose(out);
    fprintf(stderr, "[table3] wrote %s (%.1fs wall)\n", out_path.c_str(), wall_seconds);
  } else {
    fprintf(stderr, "[table3] could not write %s\n", out_path.c_str());
  }

  printf("\nPaper shape check: Nyx-Net-none is 10x-1000x above the AFL family;\n");
  printf("aggressive >= balanced >= none on most targets.\n");

  // ---- Phase breakdown (serial, telemetry on) ----
  // One short campaign per Nyx config with the profiler enabled, serial so
  // the histograms describe a single worker's per-exec pipeline. The main
  // grid above runs with telemetry off, so its throughput numbers measure
  // the uninstrumented (one-relaxed-load) hot path.
  {
    const std::string phase_out = env::StringOr("NYX_PHASE_OUT", "BENCH_phase_breakdown.json");
    const bool was_enabled = telemetry::Enabled();
    const struct {
      FuzzerKind kind;
      const char* name;
    } nyx_configs[] = {{FuzzerKind::kNyxNone, "nyx-none"},
                       {FuzzerKind::kNyxBalanced, "nyx-balanced"},
                       {FuzzerKind::kNyxAggressive, "nyx-aggressive"}};
    for (const auto& nc : nyx_configs) {
      telemetry::SetTelemetryEnabled(true);
      telemetry::MetricRegistry::Global().ResetValues();
      CampaignSpec cs;
      cs.target = "lightftp";
      cs.fuzzer = nc.kind;
      cs.limits.vtime_seconds = std::min(vtime, 5.0);
      cs.limits.wall_seconds = 3.0;
      fprintf(stderr, "[table3] phase breakdown: %s...\n", nc.name);
      if (RunCampaign(cs).result.wall_capped) {
        fprintf(stderr, "[table3] phase breakdown: %s was cut short by the wall cap\n",
                nc.name);
      }
      if (!UpdatePhaseBreakdown(phase_out, nc.name, PhaseBreakdownSection())) {
        telemetry::SetTelemetryEnabled(was_enabled);
        return 1;
      }
    }
    telemetry::SetTelemetryEnabled(was_enabled);
    telemetry::MetricRegistry::Global().ResetValues();
    fprintf(stderr, "[table3] wrote phase breakdown -> %s\n", phase_out.c_str());
  }

  // When run with NYX_AUDIT=1 this bench doubles as a whole-matrix
  // determinism gate: any divergence fails the process so CI goes red.
  if (env::Audit()) {
    fprintf(stderr, "[table3] audit: %llu pages compared, %llu divergences\n",
            static_cast<unsigned long long>(pages_audited),
            static_cast<unsigned long long>(audit_divergences));
    if (pages_audited == 0 || audit_divergences > 0) {
      return 1;
    }
  }
  return 0;
}
