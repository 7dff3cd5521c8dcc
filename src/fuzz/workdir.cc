#include "src/fuzz/workdir.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/common/telemetry.h"
#include "src/spec/verify.h"

namespace nyx {

namespace {

bool EnsureDir(const std::string& path) {
  struct stat st = {};
  if (stat(path.c_str(), &st) == 0) {
    return S_ISDIR(st.st_mode);
  }
  return mkdir(path.c_str(), 0755) == 0;
}

}  // namespace

std::vector<std::string> Workdir::ListFiles(const std::string& dir, const std::string& suffix) {
  std::vector<std::string> out;
  if (DIR* d = opendir(dir.c_str())) {
    while (struct dirent* e = readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        out.push_back(dir + "/" + name);
      }
    }
    closedir(d);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<Workdir> Workdir::Open(const std::string& path) {
  if (!EnsureDir(path) || !EnsureDir(path + "/queue") || !EnsureDir(path + "/crashes")) {
    return std::nullopt;
  }
  return Workdir(path);
}

bool Workdir::WriteProgram(const std::string& file, const Program& program) {
  const Bytes wire = program.Serialize();
  FILE* f = fopen(file.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  // A buffered write to a full disk fails only at fclose, so both count.
  const bool written = fwrite(wire.data(), 1, wire.size(), f) == wire.size();
  const bool closed = fclose(f) == 0;
  return written && closed;
}

std::optional<Program> Workdir::ReadProgram(const std::string& file, const Spec& spec,
                                            spec::Result* verdict) {
  if (verdict != nullptr) {
    *verdict = spec::Result{};
  }
  FILE* f = fopen(file.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  Bytes wire;
  uint8_t buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    wire.insert(wire.end(), buf, buf + n);
  }
  fclose(f);
  // Corpus files are a trust boundary (hand-edited, synced from other
  // fuzzers): Parse verifies, so rejects carry a rule id and byte offset.
  spec::Result local;
  spec::Result* out = verdict != nullptr ? verdict : &local;
  std::optional<Program> program = Program::Parse(wire, spec, out);
  if (!program.has_value() && verdict == nullptr) {
    NYX_LOG_WARN << "corpus file " << file << " rejected: " << local.Summary();
  }
  return program;
}

bool Workdir::SaveQueueEntry(const Program& program, size_t index) const {
  char name[64];
  snprintf(name, sizeof(name), "/queue/id_%06zu.nyx", index);
  return WriteProgram(path_ + name, program);
}

std::vector<Program> Workdir::LoadQueue(const Spec& spec) const {
  std::vector<Program> out;
  for (const std::string& file : ListFiles(path_ + "/queue", ".nyx")) {
    auto prog = ReadProgram(file, spec);
    if (prog.has_value()) {
      out.push_back(std::move(*prog));
    } else {
      NYX_LOG_WARN << "skipping malformed corpus file: " << file;
    }
  }
  return out;
}

bool Workdir::SaveCrash(uint32_t crash_id, const std::string& kind,
                        const Program& reproducer) const {
  char name[160];
  snprintf(name, sizeof(name), "/crashes/%08x_%.*s.nyx", crash_id, 96, kind.c_str());
  return WriteProgram(path_ + name, reproducer);
}

std::vector<std::pair<std::string, Program>> Workdir::LoadCrashes(const Spec& spec) const {
  std::vector<std::pair<std::string, Program>> out;
  for (const std::string& file : ListFiles(path_ + "/crashes", ".nyx")) {
    auto prog = ReadProgram(file, spec);
    if (prog.has_value()) {
      out.emplace_back(file, std::move(*prog));
    }
  }
  return out;
}

namespace {

// Atomic replacement: write <path>.tmp, flush it all the way to disk, then
// rename over the target, so a crashed run never leaves a truncated
// stats.txt/metrics.json. Any failure is loud — silently dropped stats made
// campaigns look healthy while reporting nothing.
void WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "w");
  NYX_CHECK(f != nullptr) << "cannot open " << tmp << ": " << strerror(errno);
  NYX_CHECK(fwrite(content.data(), 1, content.size(), f) == content.size())
      << "short write to " << tmp << ": " << strerror(errno);
  NYX_CHECK(fflush(f) == 0) << "flush of " << tmp << " failed: " << strerror(errno);
  NYX_CHECK(fsync(fileno(f)) == 0) << "fsync of " << tmp << " failed: " << strerror(errno);
  fclose(f);
  NYX_CHECK(rename(tmp.c_str(), path.c_str()) == 0)
      << "rename " << tmp << " -> " << path << " failed: " << strerror(errno);
}

// Builds the campaign-local metric registry: one named metric per summary
// statistic. The same registry feeds both the human-readable stats.txt and
// the machine-readable metrics.json, so the two can never drift apart.
void PopulateCampaignRegistry(telemetry::MetricRegistry& reg, const CampaignResult& result) {
  reg.RegisterCounter("execs")->Add(result.execs);
  reg.RegisterGauge("vtime_seconds")->SetDouble(result.vtime_seconds);
  reg.RegisterGauge("execs_per_vsec")->SetDouble(result.execs_per_vsecond);
  // Host speed beside the cost model's: real seconds of the campaign loop
  // and execs per real second (0 when no wall time was recorded).
  reg.RegisterGauge("wall_seconds")->SetDouble(result.wall_seconds);
  reg.RegisterGauge("execs_per_wall_sec")
      ->SetDouble(result.wall_seconds > 0
                      ? static_cast<double>(result.execs) / result.wall_seconds
                      : 0.0);
  reg.RegisterGauge("branch_coverage")->Set(result.branch_coverage);
  reg.RegisterGauge("edge_coverage")->Set(result.edge_coverage);
  reg.RegisterGauge("corpus_size")->Set(result.corpus_size);
  reg.RegisterGauge("crashes")->Set(result.crashes.size());
  reg.RegisterCounter("root_restores")->Add(result.root_restores);
  reg.RegisterCounter("inc_creates")->Add(result.incremental_creates);
  reg.RegisterCounter("inc_restores")->Add(result.incremental_restores);
  // Incremental restores per incremental snapshot created: how many execs
  // each captured prefix served (0 when none was created).
  reg.RegisterGauge("snapshot_reuse")
      ->SetDouble(result.incremental_creates > 0
                      ? static_cast<double>(result.incremental_restores) /
                            static_cast<double>(result.incremental_creates)
                      : 0.0);
  // Dirty tracking: traps and protection syscalls should stop growing once
  // the pages every exec writes are pinned open (DESIGN.md §12).
  reg.RegisterCounter("dirty_traps")->Add(result.dirty_traps);
  reg.RegisterCounter("protect_calls")->Add(result.protect_calls);
  reg.RegisterGauge("pinned_pages")->Set(result.pinned_pages);
  reg.RegisterCounter("pages_restored")->Add(result.pages_restored);
  reg.RegisterCounter("pages_captured")->Add(result.pages_captured);
  reg.RegisterGauge("root_pages")->Set(result.root_pages);
  const ContractCounters contracts = GetContractCounters();
  reg.RegisterCounter("contract_soft")->Add(contracts.soft_failures);
  reg.RegisterCounter("contract_hard")->Add(contracts.hard_failures);
  // Snapshot divergence audit (zeros unless the campaign ran with
  // NYX_AUDIT=1): pages compared and mismatches found by the run-twice
  // oracle. Any nonzero divergence count is a determinism bug.
  reg.RegisterCounter("pages_audited")->Add(result.pages_audited);
  reg.RegisterCounter("divergences")->Add(result.audit_divergences);
  // Deterministic fault injection (zeros unless the campaign ran with the
  // fault_injection knob): applications fired and input bytes they dropped.
  // faulted_bytes is split out so throughput numbers stay honest about
  // bytes the target never saw.
  reg.RegisterCounter("faults_injected")->Add(result.faults_injected);
  reg.RegisterCounter("faulted_bytes")->Add(result.faulted_bytes);
  // Coverage-novel programs the corpus rejected as equal to a queued entry.
  reg.RegisterCounter("corpus_dupes")->Add(result.corpus_dupes);
}

// Renders stats.txt from the registry in a fixed display order. The literal
// key names and 17-column value alignment are load-bearing: workdir_test and
// external scripts grep for them. A key longer than 16 characters keeps one
// space before its value.
std::string RenderStatsText(const telemetry::MetricRegistry& reg) {
  static const char* kOrder[] = {
      "execs",              "vtime_seconds",      "execs_per_vsec",     "wall_seconds",
      "execs_per_wall_sec", "branch_coverage",    "edge_coverage",      "corpus_size",
      "crashes",            "root_restores",      "inc_creates",        "inc_restores",
      "snapshot_reuse",     "dirty_traps",        "protect_calls",      "pinned_pages",
      "pages_restored",     "pages_captured",     "root_pages",         "contract_soft",
      "contract_hard",      "pages_audited",      "divergences",        "faults_injected",
      "faulted_bytes",      "corpus_dupes",
  };
  const std::vector<telemetry::MetricRegistry::Entry> entries = reg.Entries();
  std::ostringstream os;
  for (const char* key : kOrder) {
    for (const telemetry::MetricRegistry::Entry& e : entries) {
      if (e.name != key) {
        continue;
      }
      char line[128];
      if (e.counter != nullptr) {
        snprintf(line, sizeof(line), "%-16s %llu\n", key,
                 static_cast<unsigned long long>(e.counter->Value()));
      } else if (e.gauge != nullptr && e.gauge->is_double()) {
        snprintf(line, sizeof(line), "%-16s %.3f\n", key, e.gauge->DoubleValue());
      } else {
        snprintf(line, sizeof(line), "%-16s %llu\n", key,
                 static_cast<unsigned long long>(e.gauge->Value()));
      }
      os << line;
      break;
    }
  }
  return os.str();
}

// AFL plot_data-style per-campaign time series: one row per recorded sample.
// Virtual time, not wall time, so reruns of the same seed produce identical
// files.
std::string RenderPlotData(const CampaignResult& result) {
  std::ostringstream os;
  os << "# vtime_seconds, execs, branch_coverage\n";
  const auto& cov = result.coverage_over_time.points();
  const auto& exe = result.execs_over_time.points();
  const size_t n = std::min(cov.size(), exe.size());
  for (size_t i = 0; i < n; i++) {
    char line[96];
    snprintf(line, sizeof(line), "%.6f, %.0f, %.0f\n", cov[i].first, exe[i].second,
             cov[i].second);
    os << line;
  }
  return os.str();
}

}  // namespace

bool Workdir::SaveCampaign(const CampaignResult& result, const Corpus& corpus) const {
  bool ok = true;
  for (size_t i = 0; i < corpus.size(); i++) {
    ok &= SaveQueueEntry(corpus.entry(i).program, i);
  }
  for (const auto& [id, rec] : result.crashes) {
    ok &= SaveCrash(id, rec.kind, rec.reproducer);
  }

  // Campaign-local registry: concurrent campaigns (harness/parallel.h) each
  // dump their own workdir, so campaign statistics never route through the
  // process-global registry. The global registry is embedded separately in
  // metrics.json — its phase histograms and hot-layer counters are
  // process-wide by nature (and zero unless telemetry is enabled).
  telemetry::MetricRegistry reg;
  PopulateCampaignRegistry(reg, result);
  WriteFileAtomic(path_ + "/stats.txt", RenderStatsText(reg));

  std::string campaign_json = telemetry::DumpJson(reg);
  std::string process_json = telemetry::DumpJson(telemetry::MetricRegistry::Global());
  // DumpJson returns a complete object with a trailing newline; embed both.
  if (!campaign_json.empty() && campaign_json.back() == '\n') {
    campaign_json.pop_back();
  }
  if (!process_json.empty() && process_json.back() == '\n') {
    process_json.pop_back();
  }
  WriteFileAtomic(path_ + "/metrics.json", "{\n\"campaign\": " + campaign_json +
                                               ",\n\"process\": " + process_json + "\n}\n");
  WriteFileAtomic(path_ + "/plot_data", RenderPlotData(result));
  return ok;
}

}  // namespace nyx
