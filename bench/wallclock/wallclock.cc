// Wall-clock campaign benchmark runner (see README.md in this directory).
//
// Runs the fixed-work campaigns ("cells") of one workload through the same
// public path as `nyx-net fuzz` — construct NyxFuzzer, AddSeed, then Run with
// CampaignLimits::max_execs — one after another on this thread, and repeats
// the cell list until --seconds have passed. Every layer is timed from here,
// at its public seam, never inside src/:
//
//   targets           a Target decorator installed through TargetFactory
//                     times Init and each Step;
//   fuzz              spans around construction and NyxFuzzer::Run;
//   vm, netemu, spec  accessors read after Run, plus timed probes of the
//                     netemu aux codec and of Program::OpsHash over the
//                     final corpus;
//   common.telemetry  PhaseHistogram deltas over traced repetitions.
//
// Untraced repetitions record only what the end-to-end metrics need: the
// decorator counts Steps and reads the clock when the first exec begins and
// then every kWindowSteps Steps. With --trace 1 every untraced repetition is
// paired with a traced one, which is what the tracing overhead compares
// against. Spans and counters stay in memory and are written once, as one
// JSON document (--out), when the run ends; run.py turns that document into
// metrics and checks it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/fuzz/fuzzer.h"
#include "src/mario/level.h"
#include "src/mario/mario_target.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  std::vector<std::string> subjects;  // registry target names, or Mario levels
  size_t seeds_per_subject;           // campaign seeds, derived from --seed
  bool mario;
  PolicyMode policy;
  bool fault_injection;
  size_t mem_pages;
  // Proto workloads: the fixed exec budget of each cell. mario-solve: the
  // exec cap a cell must solve its level within.
  uint64_t max_execs;
};

// Why these cells: README.md. The execs a campaign needs to solve a Mario
// level vary widely between campaign seeds, so mario-solve sums many solves
// of a cheap level to keep the summed solve time steady across benchmark
// seeds.
const std::vector<Workload>& Workloads() {
  static const std::vector<std::string> kProtoTargets = {"lightftp", "kamailio", "dnsmasq",
                                                         "openssl", "dcmtk"};
  static const std::vector<Workload> kWorkloads = {
      {"proto-root", kProtoTargets, 2, false, PolicyMode::kNone, false, 1024, 20000},
      {"proto-incr", kProtoTargets, 2, false, PolicyMode::kBalanced, true, 65536, 20000},
      {"mario-solve", {"1-1"}, 160, true, PolicyMode::kAggressive, false, 1024, 50000},
  };
  return kWorkloads;
}

// A cell that reaches this wall time has failed: fixed work must finish.
constexpr double kWallCapSeconds = 60.0;
// The audited pass replays each exec and hashes every guest page, so it runs
// a short prefix of the first cell on a 4 MiB guest.
constexpr uint64_t kAuditExecs = 100;
constexpr size_t kAuditMemPages = 1024;
// Bounded reservoir of raw exec-Step durations kept per traced cell.
constexpr size_t kStepSampleCap = 512;
// The loop is cut into windows of this many Steps, with one clock reading
// between windows. A campaign is deterministic, so a window holds the same
// work in every repetition of its cell.
constexpr uint64_t kWindowSteps = 256;
// Repetitions of the untimed codec / OpsHash probes, for clock resolution.
constexpr int kCodecRounds = 256;
constexpr int kOpsHashRounds = 16;

// Knobs that change the measured program. The benchmark measures the
// shipped configuration, so it refuses to run when any is set.
constexpr const char* kProgramKnobs[] = {"NYX_TRACKER",       "NYX_SNAPSHOT_DEPTH", "NYX_DIRTY_RING",
                                         "NYX_AUDIT",         "NYX_ANALYZE_CHECK",  "NYX_TELEMETRY",
                                         "NYX_TRACE",         "NYX_LOCK_DEBUG"};

struct Cell {
  std::string name;  // "<subject>/<seed index>"
  std::string subject;
  uint64_t seed;
};

std::vector<Cell> CellsFor(const Workload& w, uint64_t bench_seed) {
  std::vector<Cell> cells;
  const uint64_t base = Mix64(bench_seed);
  for (size_t i = 0; i < w.subjects.size(); i++) {
    for (size_t k = 0; k < w.seeds_per_subject; k++) {
      cells.push_back({w.subjects[i] + "/" + std::to_string(k), w.subjects[i],
                       Mix64(base + i * w.seeds_per_subject + k)});
    }
  }
  return cells;
}

// ---- Target decorator --------------------------------------------------------

// What the decorator saw of one campaign. Boot() runs Init and exactly one
// Step before the root snapshot; the second Step is the first exec's, so its
// start is where the campaign loop begins.
struct TargetSpans {
  explicit TargetSpans(uint64_t seed) : rng(seed) {}

  void RecordExecStep(int64_t ns) {
    exec_ns += ns;
    hist[telemetry::Histogram::BucketFor(static_cast<uint64_t>(ns))]++;
    // Reservoir sampling keeps a uniform bounded sample of exec Steps.
    const uint64_t seen = steps - 1;
    if (sample.size() < kStepSampleCap) {
      sample.push_back(ns);
    } else if (const uint64_t slot = rng.Below(seen); slot < kStepSampleCap) {
      sample[slot] = ns;
    }
  }

  // Whether Step number n opens a loop window: the first exec's Step opens
  // the loop, and every kWindowSteps-th Step after it opens the next window.
  static bool OpensWindow(uint64_t n) { return n >= 2 && (n - 2) % kWindowSteps == 0; }

  void OpenWindow(uint64_t n, int64_t now) {
    if (n == 2) {
      loop_begin_ns = now;
    } else {
      marks.push_back(now);
    }
  }

  uint64_t steps = 0;  // every Step call, the boot Step included
  int64_t init_ns = 0;
  int64_t loop_begin_ns = 0;
  std::vector<int64_t> marks;  // window boundaries inside the loop
  int64_t boot_step_ns = 0;    // traced only, like everything below
  int64_t exec_ns = 0;
  uint64_t hist[telemetry::Histogram::kBuckets] = {};
  std::vector<int64_t> sample;
  Rng rng;
};

class TimedTarget final : public Target {
 public:
  TimedTarget(std::unique_ptr<Target> inner, TargetSpans* spans, bool traced)
      : inner_(std::move(inner)), spans_(spans), traced_(traced) {}

  TargetInfo info() const override { return inner_->info(); }

  void Init(GuestContext& ctx) override {
    spans_->init_ns = NowNs();
    inner_->Init(ctx);
  }

  void Step(GuestContext& ctx) override {
    const uint64_t n = ++spans_->steps;
    if (!traced_) {
      if (TargetSpans::OpensWindow(n)) {
        spans_->OpenWindow(n, NowNs());
      }
      inner_->Step(ctx);
      return;
    }
    const int64_t start = NowNs();
    if (TargetSpans::OpensWindow(n)) {
      spans_->OpenWindow(n, start);
    }
    inner_->Step(ctx);
    const int64_t ns = NowNs() - start;
    if (n == 1) {
      spans_->boot_step_ns = ns;
    } else {
      spans_->RecordExecStep(ns);
    }
  }

 private:
  std::unique_ptr<Target> inner_;
  TargetSpans* spans_;
  bool traced_;
};

// ---- one campaign ------------------------------------------------------------

template <typename T>
std::string JsonArray(const T* values, size_t n) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < n; i++) {
    os << (i == 0 ? "" : ",") << values[i];
  }
  os << "]";
  return os.str();
}

telemetry::Counter* PacketsCounter() {
  return telemetry::MetricRegistry::Global().RegisterCounter("netemu.packets_delivered");
}

// Runs one cell and returns its JSON record.
std::string RunCell(const Workload& w, const Cell& cell, bool traced, bool audit) {
  TargetSpans spans(cell.seed);
  const int64_t begin_ns = NowNs();

  // Building the spec and the seeds is part of set-up, as in `nyx-net fuzz`.
  Spec spec;
  std::vector<Program> seeds;
  TargetFactory inner;
  uint64_t goal = 0;
  if (w.mario) {
    const LevelDef* level = FindLevel(cell.subject);
    spec = Spec::GenericNetwork();
    seeds.push_back(MarioSeed(spec, *level, 64));
    inner = [name = cell.subject] { return MakeMarioTarget(name); };
    goal = static_cast<uint64_t>(level->length) * kSub;
  } else {
    const std::optional<TargetRegistration> reg = FindTarget(cell.subject);
    spec = reg->make_spec();
    seeds = reg->make_seeds(spec);
    inner = reg->factory;
  }

  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = audit ? kAuditMemPages : w.mem_pages;
  engine_cfg.seed = cell.seed;
  engine_cfg.audit = audit;
  FuzzerConfig fuzz_cfg;
  fuzz_cfg.policy = w.policy;
  fuzz_cfg.seed = cell.seed;
  fuzz_cfg.fault_injection = w.fault_injection;
  fuzz_cfg.analyze_check = false;
  TargetFactory factory = [&] {
    return std::make_unique<TimedTarget>(inner(), &spans, traced);
  };
  NyxFuzzer fuzzer(engine_cfg, factory, spec, fuzz_cfg);
  for (Program& seed : seeds) {
    fuzzer.AddSeed(std::move(seed));
  }

  CampaignLimits limits;
  limits.vtime_seconds = std::numeric_limits<double>::infinity();
  limits.max_execs = audit ? kAuditExecs : w.max_execs;
  limits.wall_seconds = kWallCapSeconds;
  // The audited pass is a fixed-budget prefix, even on Mario.
  limits.ijon_goal = audit ? 0 : goal;

  const uint64_t packets_before = PacketsCounter()->Value();
  const int64_t run_call_ns = NowNs();
  const CampaignResult r = fuzzer.Run(limits);
  const int64_t end_ns = NowNs();
  const uint64_t packets = PacketsCounter()->Value() - packets_before;

  const bool has_goal = limits.ijon_goal != 0;
  const char* stop = has_goal && r.ijon_best >= limits.ijon_goal ? "goal"
                     : r.execs >= limits.max_execs               ? (has_goal ? "cap" : "budget")
                                                                 : "wall";

  // Final-corpus replay for the spec layer; the corpus hash doubles as a
  // determinism fingerprint.
  const Corpus& corpus = fuzzer.corpus();
  uint64_t corpus_ops = 0;
  uint64_t corpus_hash = 0;
  for (size_t i = 0; i < corpus.size(); i++) {
    const Program& p = corpus.entry(i).program;
    corpus_ops += p.ops.size();
    corpus_hash = Mix64(corpus_hash ^ p.OpsHash(p.ops.size()));
  }

  NyxEngine& engine = fuzzer.engine();
  const VmStats& vm = engine.vm_stats();
  std::ostringstream os;
  os << "{\"name\":\"" << cell.name << "\",\"seed\":" << cell.seed << ",\"stop\":\"" << stop
     << "\",\"soft_failures\":" << r.contract_soft_failures;
  os << ",\"t\":{\"begin\":" << begin_ns << ",\"run_call\":" << run_call_ns
     << ",\"init\":" << spans.init_ns << ",\"loop_begin\":" << spans.loop_begin_ns
     << ",\"end\":" << end_ns << "}";
  os << ",\"marks\":" << JsonArray(spans.marks.data(), spans.marks.size());
  os << ",\"out\":{\"execs\":" << r.execs << ",\"branches\":" << r.branch_coverage
     << ",\"edges\":" << r.edge_coverage << ",\"corpus\":" << r.corpus_size
     << ",\"corpus_hash\":" << corpus_hash << ",\"ijon_best\":" << r.ijon_best
     << ",\"steps\":" << spans.steps << ",\"root_restores\":" << vm.root_restores
     << ",\"incremental_restores\":" << vm.incremental_restores
     << ",\"incremental_creates\":" << vm.incremental_creates
     << ",\"deep_restores\":" << vm.deep_restores << ",\"pages_restored\":" << vm.pages_restored
     << ",\"pages_captured\":" << vm.pages_captured << "}";
  os << ",\"layer\":{\"dirty_marks\":" << engine.vm().mem().tracker().total_marks()
     << ",\"protect_calls\":" << engine.vm().mem().protect_calls()
     << ",\"netemu_calls\":" << engine.net().calls() << ",\"packets\":" << packets
     << ",\"faults\":" << r.faults_injected << ",\"corpus_ops\":" << corpus_ops;
  if (traced) {
    // Untimed probes of per-exec work the loop does behind the seams: the
    // aux blob every capture serializes and every restore deserializes, and
    // the prefix hashing chain matching runs.
    const Bytes& aux = engine.vm().current_aux();
    NetEmu& net = engine.net();
    bool codec_ok = true;
    int64_t t0 = NowNs();
    for (int i = 0; i < kCodecRounds; i++) {
      const Bytes blob = net.Serialize();
      codec_ok = net.Deserialize(blob) && codec_ok;
    }
    const int64_t codec_ns = (NowNs() - t0) / kCodecRounds;
    uint64_t sink = 0;
    t0 = NowNs();
    for (int round = 0; round < kOpsHashRounds; round++) {
      for (size_t i = 0; i < corpus.size(); i++) {
        const Program& p = corpus.entry(i).program;
        sink += p.OpsHash(p.ops.size());
      }
    }
    const int64_t ops_hash_ns = NowNs() - t0;
    os << ",\"aux_bytes\":" << aux.size() << ",\"codec_ns\":" << codec_ns
       << ",\"codec_ok\":" << (codec_ok ? "true" : "false") << ",\"ops_hash_ns\":" << ops_hash_ns
       << ",\"ops_hashed\":" << corpus_ops * kOpsHashRounds << ",\"ops_hash_sink\":" << sink;
  }
  if (audit) {
    os << ",\"pages_audited\":" << r.pages_audited << ",\"divergences\":" << r.audit_divergences;
  }
  os << "}";
  if (traced) {
    os << ",\"step_spans\":{\"boot_ns\":" << spans.boot_step_ns << ",\"exec_ns\":" << spans.exec_ns
       << ",\"hist\":" << JsonArray(spans.hist, telemetry::Histogram::kBuckets)
       << ",\"sample\":" << JsonArray(spans.sample.data(), spans.sample.size()) << "}";
  }
  os << "}";
  return os.str();
}

// ---- repetitions ---------------------------------------------------------------

std::vector<telemetry::Histogram::Snapshot> SnapPhases() {
  std::vector<telemetry::Histogram::Snapshot> snaps;
  for (size_t p = 0; p < telemetry::kPhaseCount; p++) {
    snaps.push_back(telemetry::PhaseHistogram(static_cast<telemetry::Phase>(p))->Snap());
  }
  return snaps;
}

// A fixed piece of work timed after every cell: system calls and random
// read-modify-writes over 1 MiB, the kinds of work the campaign loop does
// besides guest code. On a shared host the same campaign can run up to 1.75
// times slower for minutes at a time, and the probe slows with it; metrics.py
// scales the run's timings by the probe's times (README.md, Noise).
// The probe is the benchmark's own code, so changing the program does not
// move it.
class SpeedProbe {
 public:
  int64_t Run() {
    const int64_t begin = NowNs();
    for (int i = 0; i < kSyscalls; i++) {
      sink_ += static_cast<uint64_t>(getppid());
    }
    for (int i = 0; i < kAccesses; i++) {
      sink_ += table_[rng_.Next() & (kWords - 1)]++;
    }
    return NowNs() - begin;
  }

  uint64_t sink() const { return sink_; }

 private:
  static constexpr int kSyscalls = 2000;
  static constexpr int kAccesses = 20000;
  static constexpr size_t kWords = size_t{1} << 17;  // 1 MiB of words

  std::vector<uint64_t> table_ = std::vector<uint64_t>(kWords, 1);
  Rng rng_;
  uint64_t sink_ = 0;
};

struct Rep {
  std::string json;
  size_t cells_run = 0;
};

// Runs the cells once, in order, each followed by the speed probe, and
// returns the repetition's record. With a deadline (nonzero), a cell starts
// only if its slowest run so far, slowest_ns[i], still ends by then, so the
// repetition may stop early. Traced repetitions switch the phase profiler
// on and report its histograms' growth over the repetition.
Rep RunRep(const Workload& w, const std::vector<Cell>& cells, bool traced, int64_t deadline_ns,
           std::vector<int64_t>& slowest_ns, SpeedProbe& probe) {
  telemetry::SetTelemetryEnabled(traced);
  const std::vector<telemetry::Histogram::Snapshot> before = SnapPhases();
  const int64_t begin_ns = NowNs();
  Rep rep;
  std::vector<int64_t> probe_ns;
  std::ostringstream os;
  os << "{\"traced\":" << (traced ? "true" : "false") << ",\"cells\":[";
  for (; rep.cells_run < cells.size(); rep.cells_run++) {
    const size_t i = rep.cells_run;
    const int64_t cell_begin = NowNs();
    if (deadline_ns != 0 && cell_begin + slowest_ns[i] > deadline_ns) {
      break;
    }
    os << (i == 0 ? "" : ",") << RunCell(w, cells[i], traced, /*audit=*/false);
    slowest_ns[i] = std::max(slowest_ns[i], NowNs() - cell_begin);
    probe_ns.push_back(probe.Run());
  }
  os << "],\"probe_ns\":" << JsonArray(probe_ns.data(), probe_ns.size());
  os << ",\"t\":{\"begin\":" << begin_ns << ",\"end\":" << NowNs() << "}";
  telemetry::SetTelemetryEnabled(false);
  if (traced) {
    const std::vector<telemetry::Histogram::Snapshot> after = SnapPhases();
    os << ",\"phases\":{";
    for (size_t p = 0; p < telemetry::kPhaseCount; p++) {
      uint64_t delta[telemetry::Histogram::kBuckets];
      for (size_t b = 0; b < telemetry::Histogram::kBuckets; b++) {
        delta[b] = after[p].counts[b] - before[p].counts[b];
      }
      os << (p == 0 ? "" : ",") << "\"" << telemetry::PhaseName(static_cast<telemetry::Phase>(p))
         << "\":" << JsonArray(delta, telemetry::Histogram::kBuckets);
    }
    os << "}";
  }
  os << "}";
  rep.json = os.str();
  return rep;
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage() {
  fprintf(stderr,
          "usage: wallclock --workload NAME --seed N --seconds S --trace 0|1 --out FILE\n"
          "workloads:");
  for (const Workload& w : Workloads()) {
    fprintf(stderr, " %s", w.name);
  }
  fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string out_path;
  uint64_t bench_seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      bench_seed = strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = atof(value);
    } else if (key == "--trace") {
      trace = atoi(value);
    } else if (key == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || out_path.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  for (const char* knob : kProgramKnobs) {
    if (!env::StringOr(knob, "").empty()) {
      fprintf(stderr, "wallclock: %s is set; unset it to measure the shipped configuration\n",
              knob);
      return 2;
    }
  }

  const std::vector<Cell> cells = CellsFor(*workload, bench_seed);
  const int64_t deadline_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> slowest_cell_ns(cells.size(), 0);
  int64_t slowest_round_ns = 0;
  SpeedProbe probe;
  std::vector<std::string> reps;
  // One round is one untraced repetition, plus its traced twin under
  // --trace 1. Untraced runs take at least two rounds, so every cell has a
  // second run to check determinism against; a traced round already holds
  // two. Then rounds continue until --seconds have passed. An untraced
  // run's last repetition may stop early, before the first cell that would
  // not end in time; a traced round starts only if the slowest round so far
  // still fits, so twins stay whole.
  const size_t min_rounds = trace == 1 ? 1 : 2;
  for (size_t round = 0;; round++) {
    const int64_t round_begin = NowNs();
    const bool past_min = round >= min_rounds;
    if (past_min && trace == 1 && round_begin + slowest_round_ns > deadline_ns) {
      break;
    }
    Rep rep = RunRep(*workload, cells, /*traced=*/false,
                     past_min && trace == 0 ? deadline_ns : 0, slowest_cell_ns, probe);
    if (rep.cells_run == 0) {
      break;
    }
    reps.push_back(std::move(rep.json));
    if (trace == 1) {
      reps.push_back(RunRep(*workload, cells, /*traced=*/true, 0, slowest_cell_ns, probe).json);
    }
    const int64_t now = NowNs();
    slowest_round_ns = std::max(slowest_round_ns, now - round_begin);
    fprintf(stderr, "wallclock: %s round %zu (%zu cells) done in %.2f s\n", workload->name,
            round + 1, rep.cells_run, static_cast<double>(now - round_begin) * 1e-9);
    if (rep.cells_run < cells.size()) {
      break;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const long peak_rss_kib = usage.ru_maxrss;

  const std::string audit = RunCell(*workload, cells.front(), /*traced=*/false, /*audit=*/true);

  std::ofstream out(out_path);
  out << "{\"workload\":\"" << workload->name << "\",\"seed\":" << bench_seed
      << ",\"trace\":" << trace << ",\"build_type\":\"" << NYX_WALLCLOCK_BUILD_TYPE
      << "\",\"compiler\":\"" << CompilerName() << "\",\"mem_pages\":" << workload->mem_pages
      << ",\"max_execs\":" << workload->max_execs << ",\"peak_rss_kib\":" << peak_rss_kib
      << ",\"probe_sink\":" << probe.sink() << ",\"reps\":[";
  for (size_t i = 0; i < reps.size(); i++) {
    out << (i == 0 ? "" : ",\n") << reps[i];
  }
  out << "],\n\"audit\":" << audit << "}\n";
  out.close();
  if (!out) {
    fprintf(stderr, "wallclock: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nyx

int main(int argc, char** argv) { return nyx::Main(argc, argv); }
