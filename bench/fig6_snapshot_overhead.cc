// Figure 6: throughput of creating/loading incremental snapshots with n
// dirty pages, Nyx-Net vs AGAMOTTO, on two VM sizes — plus a sweep the
// paper's KVM setup could not ask: the depth-k snapshot tree against the
// classic root+incremental pair on a staged message sequence (DESIGN.md §12).
//
// This is a genuine wall-clock microbenchmark of the two snapshot
// implementations (src/vm vs src/agamotto): real mmap/mprotect/memfd-CoW
// machinery, real dirty-page logging. The paper used 512 MB and 4 GB VMs on
// an i7-6700HQ; by default we use 256 MB and 1 GB to fit CI-class machines
// (override with NYX_FIG6_VM_MB="512 4096").
//
// Expected shape (paper section 5.3): Nyx-Net is ~an order of magnitude
// faster across the relevant range because AGAMOTTO walks the whole
// one-byte-per-page bitmap and maintains a checkpoint tree, while Nyx-Net
// resets from a dirty-page stack; for very large dirty counts the gap closes
// (the 4-byte-per-entry stack eventually outweighs the 1-byte-per-page
// bitmap).
//
// Deliberately serial (no NYX_JOBS fan-out): this measures wall-clock
// latency of mmap/memcpy paths, which concurrent workers would distort.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/agamotto/agamotto.h"
#include "src/common/env.h"
#include "src/common/telemetry.h"
#include "src/harness/phase_dump.h"
#include "src/harness/table.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Dirties n pages spread across the guest (first write per page => one
// tracking fault each), outside the timed region.
void DirtyPages(GuestMemory& mem, size_t n, uint8_t value) {
  const size_t stride = mem.num_pages() / n;
  for (size_t i = 0; i < n; i++) {
    mem.base()[(i * (stride > 0 ? stride : 1) % mem.num_pages()) * kPageSize] = value;
  }
}

struct Sample {
  double create_us = 0;
  double restore_us = 0;
};

Sample BenchNyx(size_t vm_pages, size_t dirty, size_t reps) {
  VmConfig cfg;
  cfg.mem_pages = vm_pages;
  cfg.disk_sectors = 16;
  Vm vm(cfg);
  vm.TakeRootSnapshot();
  Sample s;
  for (size_t r = 0; r < reps; r++) {
    DirtyPages(vm.mem(), dirty, static_cast<uint8_t>(r + 1));
    auto t0 = Clock::now();
    vm.CreateIncremental();
    s.create_us += MicrosSince(t0);

    DirtyPages(vm.mem(), dirty, static_cast<uint8_t>(r + 2));
    t0 = Clock::now();
    vm.RestoreIncremental();
    s.restore_us += MicrosSince(t0);

    vm.RestoreRoot();
  }
  s.create_us /= static_cast<double>(reps);
  s.restore_us /= static_cast<double>(reps);
  return s;
}

Sample BenchAgamotto(size_t vm_pages, size_t dirty, size_t reps) {
  GuestMemory mem(vm_pages);
  AgamottoCheckpointManager mgr(mem, {});
  Sample s;
  for (size_t r = 0; r < reps; r++) {
    DirtyPages(mem, dirty, static_cast<uint8_t>(r + 1));
    auto t0 = Clock::now();
    const int cp = mgr.CreateCheckpoint();
    s.create_us += MicrosSince(t0);

    DirtyPages(mem, dirty, static_cast<uint8_t>(r + 2));
    t0 = Clock::now();
    mgr.RestoreCheckpoint(cp);
    s.restore_us += MicrosSince(t0);

    mgr.RestoreCheckpoint(-1);
  }
  s.create_us /= static_cast<double>(reps);
  s.restore_us /= static_cast<double>(reps);
  return s;
}

// Depth-k tree vs classic pair on a staged message sequence: `stages`
// protocol stages each dirty `stage_pages` fresh pages; the tree snapshots
// the first `depth` stage boundaries (exactly what the engine's auto-push
// does at packet boundaries). Per iteration the bench returns to the
// deepest state: restore to the deepest snapshot, then re-apply the
// un-snapshotted stages by rewriting their pages — a *floor* on replay cost,
// since real re-execution also runs the target. Larger depth => fewer
// replayed stages and less dirt for the next restore to revert.
double BenchTree(size_t vm_pages, size_t stages, size_t depth, size_t stage_pages,
                 size_t tail, size_t reps) {
  VmConfig cfg;
  cfg.mem_pages = vm_pages;
  cfg.disk_sectors = 16;
  cfg.snapshot_depth = depth;
  Vm vm(cfg);
  vm.TakeRootSnapshot();

  auto write_stage = [&](size_t s, uint8_t value) {
    for (size_t i = 0; i < stage_pages; i++) {
      vm.mem().base()[((s * stage_pages + i) % vm_pages) * kPageSize] = value;
    }
  };
  for (size_t s = 0; s < stages; s++) {
    write_stage(s, static_cast<uint8_t>(s + 1));
    if (s < depth) {
      vm.PushSnapshot();
    }
  }

  double total = 0;
  for (size_t r = 0; r < reps; r++) {
    // Suffix dirt on top of the deepest state (the fuzzed tail packet).
    for (size_t i = 0; i < tail; i++) {
      vm.mem().base()[((stages * stage_pages + i) % vm_pages) * kPageSize] =
          static_cast<uint8_t>(r + 1);
    }
    const auto t0 = Clock::now();
    vm.RestoreTo(depth);
    for (size_t s = depth; s < stages; s++) {
      write_stage(s, static_cast<uint8_t>(s + 1));  // replay floor
    }
    total += MicrosSince(t0);
  }
  return total / static_cast<double>(reps);
}

// Page-granular write protection splits the guest mapping into up to two
// VMAs per dirtied page; large dirty counts exceed the kernel's default
// vm.max_map_count (65530) and mprotect starts failing. Hardware dirty
// logging (the paper's KVM) has no such limit. Try to raise it; report
// whether the large sweep points are runnable.
bool EnsureMapCount(size_t needed) {
  FILE* f = fopen("/proc/sys/vm/max_map_count", "r");
  long current = 0;
  if (f != nullptr) {
    if (fscanf(f, "%ld", &current) != 1) {
      current = 0;
    }
    fclose(f);
  }
  if (current >= static_cast<long>(needed)) {
    return true;
  }
  f = fopen("/proc/sys/vm/max_map_count", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = fprintf(f, "%zu", needed) > 0;
  fclose(f);
  return ok;
}

}  // namespace
}  // namespace nyx

int main() {
  using namespace nyx;

  std::vector<size_t> vm_mbs = {256, 1024};
  const std::string vm_mb_env = env::StringOr("NYX_FIG6_VM_MB", "");
  if (!vm_mb_env.empty()) {
    vm_mbs.clear();
    for (const char* p = vm_mb_env.c_str(); *p != '\0';) {
      vm_mbs.push_back(strtoul(p, const_cast<char**>(&p), 10));
      while (*p == ' ' || *p == ',') {
        p++;
      }
    }
  }
  const size_t dirty_counts[] = {10, 100, 1000, 10000, 100000};

  printf("Figure 6: incremental snapshot create/load time vs dirtied pages\n");
  printf("(averaged wall-clock microseconds; lower is better)\n\n");

  // The Nyx snapshot paths are phase-instrumented (the vm-layer dirty-reset
  // phase, src/vm/vm.cc; the snapshot-restore wrapper belongs to the engine,
  // which this microbenchmark bypasses); with the profiler on, each VM
  // size's sweep doubles as a phase-latency sample that lands next to
  // table3's campaign breakdown in BENCH_phase_breakdown.json.
  const std::string phase_out = env::StringOr("NYX_PHASE_OUT", "BENCH_phase_breakdown.json");
  const bool was_enabled = telemetry::Enabled();
  telemetry::SetTelemetryEnabled(true);

  for (size_t mb : vm_mbs) {
    const size_t pages = mb * 1024 * 1024 / kPageSize;
    telemetry::MetricRegistry::Global().ResetValues();
    TextTable table({"dirty pages", "Nyx create us", "Agamotto create us", "create speedup",
                     "Nyx load us", "Agamotto load us", "load speedup"});
    for (size_t dirty : dirty_counts) {
      if (dirty > pages * 3 / 4) {
        // The paper's 500MB VM could not dirty 1e5 pages either.
        table.AddRow({std::to_string(dirty), "-", "-", "-", "-", "-", "-"});
        continue;
      }
      if (dirty * 2 + 1024 > 65000 && !EnsureMapCount(dirty * 3)) {
        table.AddRow({std::to_string(dirty), "(needs vm.max_map_count)", "", "", "", "", ""});
        continue;
      }
      // Repetitions scale down with work; the paper used 1000.
      const size_t reps = dirty <= 1000 ? 100 : (dirty <= 10000 ? 20 : 5);
      fprintf(stderr, "[fig6] vm=%zuMB dirty=%zu nyx...\n", mb, dirty);
      const Sample nyx = BenchNyx(pages, dirty, reps);
      fprintf(stderr, "[fig6] vm=%zuMB dirty=%zu agamotto...\n", mb, dirty);
      const Sample aga = BenchAgamotto(pages, dirty, reps);
      table.AddRow({std::to_string(dirty), Fmt(nyx.create_us), Fmt(aga.create_us),
                    Fmt(aga.create_us / nyx.create_us, 1) + "x", Fmt(nyx.restore_us),
                    Fmt(aga.restore_us), Fmt(aga.restore_us / nyx.restore_us, 1) + "x"});
    }
    printf("VM size: %zu MB (%zu pages)\n", mb, pages);
    table.Print();
    printf("\n");
    if (!UpdatePhaseBreakdown(phase_out, "fig6-" + std::to_string(mb) + "mb",
                              PhaseBreakdownSection())) {
      telemetry::SetTelemetryEnabled(was_enabled);
      return 1;
    }
  }
  // Depth-k tree vs the classic pair: 8 protocol stages x 512 pages, the
  // tree snapshotting the first k stage boundaries. depth=1 IS the classic
  // root+incremental pair; deeper trees replay fewer stages per iteration
  // and revert less dirt per restore.
  {
    const size_t tree_pages = 64 * 1024 * 1024 / kPageSize;  // 64 MB VM
    const size_t kStages = 8, kStagePages = 512, kTail = 64, kReps = 50;
    printf("Snapshot tree: time back to the deepest of %zu stages (%zu pages/stage)\n",
           kStages, kStagePages);
    TextTable table({"tree depth", "per-iteration us", "speedup vs depth 1"});
    double depth1_us = 0;
    for (size_t depth : {1, 2, 4, 8}) {
      telemetry::MetricRegistry::Global().ResetValues();
      fprintf(stderr, "[fig6] tree depth=%zu...\n", depth);
      const double us = BenchTree(tree_pages, kStages, depth, kStagePages, kTail, kReps);
      if (!UpdatePhaseBreakdown(phase_out, "fig6-tree-depth" + std::to_string(depth),
                                PhaseBreakdownSection())) {
        telemetry::SetTelemetryEnabled(was_enabled);
        return 1;
      }
      if (depth == 1) {
        depth1_us = us;
      }
      table.AddRow({std::to_string(depth), Fmt(us), Fmt(depth1_us / us, 1) + "x"});
    }
    table.Print();
    printf("\n");
  }

  telemetry::SetTelemetryEnabled(was_enabled);
  telemetry::MetricRegistry::Global().ResetValues();
  fprintf(stderr, "[fig6] phase breakdown -> %s\n", phase_out.c_str());

  printf("Paper shape check: Nyx-Net ~10x faster in the relevant range;\n");
  printf("gap narrows as the dirty count approaches the VM size.\n");
  return 0;
}
