// nyx-net: command-line front end, mirroring the five-step workflow of
// paper section 5.4 (pick target -> pick spec -> gather seeds -> bundle ->
// run the fuzzer).
//
//   nyx-net targets
//       List the available fuzz targets and their seeded bugs.
//   nyx-net fuzz --target NAME [--policy none|balanced|aggressive|aflnet|
//       aflnet-no-state|aflnwe|desock|ijon] [--vtime SECONDS] [--wall SECONDS]
//       [--seed N] [--vm-pages N] [--asan] [--workdir DIR] [--resume] [--faults]
//       Run a campaign; persists queue/crashes/stats into the workdir.
//       --faults enables deterministic fault injection (Nyx policies only).
//       --vm-pages sizes the guest (default 1024, 17 to 1048576).
//   nyx-net pcap --target NAME --pcap FILE [--port P]
//       [--split crlf|len16|len32|segment] [--workdir DIR]
//       Convert a capture into bytecode seeds (section 4.4).
//   nyx-net repro --target NAME --input FILE [--asan] [--seed N]
//       Replay one input against the target and report the outcome.
//   nyx-net trim --target NAME --input FILE [--out FILE] [--seed N]
//       Minimize one input while preserving its coverage fingerprint
//       (afl-tmin-style reverse sweep over dependency cones).
//   nyx-net verify DIR --target NAME
//       Batch-check every .nyx file in DIR with the verifying decoder
//       (Program::Parse). Exits 1 if any file fails, 2 if DIR holds none.
//   nyx-net mario --level 1-1 [--policy ...] [--wall SECONDS] [--seed N]
//       Solve a Super Mario level (section 5.3).
//
// A command exits 2 on an option it cannot use as given: an unknown policy
// or --split name, a guest size outside 17 to 1048576 pages, or a number
// that does not parse whole (--vtime and --wall take positive numbers,
// --seed, --vm-pages and --port unsigned integers).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/trim.h"
#include "src/fuzz/workdir.h"
#include "src/harness/campaign.h"
#include "src/harness/table.h"
#include "src/mario/mario_target.h"
#include "src/spec/pcap.h"
#include "src/spec/verify.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

// Whole-string number parses: trailing text, a sign or an empty string is
// an error, never a silent 0 (atof("abc") would run a 0-second campaign).
std::optional<double> ParsePositive(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno != 0 || !std::isfinite(v) || !(v > 0)) {
    return std::nullopt;
  }
  return v;
}

std::optional<uint64_t> ParseUnsigned(const std::string& text) {
  // strtoull alone would accept "-1" (as 2^64-1) and leading blanks.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || errno != 0) {
    return std::nullopt;
  }
  return v;
}

struct Args {
  std::map<std::string, std::string> values;
  bool Has(const std::string& key) const { return values.count(key) != 0; }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
  }
  // Only for the options ParseArgs has checked; value() aborts on any other.
  double GetDouble(const std::string& key, double def) const {
    return Has(key) ? ParsePositive(Get(key)).value() : def;
  }
  uint64_t GetU64(const std::string& key, uint64_t def) const {
    return Has(key) ? ParseUnsigned(Get(key)).value() : def;
  }
};

// Nullopt, after printing why, when a numeric option does not parse.
std::optional<Args> ParseArgs(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; i++) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      continue;
    }
    key = key.substr(2);
    if (i + 1 < argc && strncmp(argv[i + 1], "--", 2) != 0) {
      args.values[key] = argv[++i];
    } else {
      args.values[key] = "1";  // boolean flag
    }
  }
  for (const char* key : {"vtime", "wall"}) {
    if (args.Has(key) && !ParsePositive(args.Get(key)).has_value()) {
      fprintf(stderr, "--%s takes a positive number, not '%s'\n", key, args.Get(key).c_str());
      return std::nullopt;
    }
  }
  for (const char* key : {"seed", "vm-pages", "port"}) {
    if (args.Has(key) && !ParseUnsigned(args.Get(key)).has_value()) {
      fprintf(stderr, "--%s takes an unsigned integer, not '%s'\n", key, args.Get(key).c_str());
      return std::nullopt;
    }
  }
  return args;
}

int Usage() {
  fprintf(stderr,
          "usage: nyx-net <targets|fuzz|pcap|repro|trim|verify|mario> [--help]\n"
          "run with a command and no arguments for that command's options\n");
  return 2;
}

// The fuzzer --policy names (`def` when absent); prints the accepted names
// and returns nullopt for any other.
std::optional<FuzzerKind> PolicyArg(const Args& args, const char* def) {
  const std::string name = args.Get("policy", def);
  const std::optional<FuzzerKind> kind = ParseFuzzer(name);
  if (!kind.has_value()) {
    fprintf(stderr,
            "unknown policy '%s'; expected none, balanced, aggressive, aflnet, "
            "aflnet-no-state, aflnwe, desock or ijon\n",
            name.c_str());
  }
  return kind;
}

int CmdTargets() {
  TextTable table({"target", "spec", "seeds", "profuzzbench", "seeded crashes"});
  for (const auto& reg : AllTargets()) {
    const Spec spec = reg.make_spec();
    std::string crashes;
    for (uint32_t id : reg.known_crashes) {
      char buf[16];
      snprintf(buf, sizeof(buf), "%08x ", id);
      crashes += buf;
    }
    table.AddRow({reg.name, spec.FindNodeType("close").has_value() ? "multi-connection" : "generic",
                  std::to_string(reg.make_seeds(spec).size()),
                  reg.in_profuzzbench ? "yes" : "no", crashes.empty() ? "-" : crashes});
  }
  table.Print();
  printf("\nmario levels: 1-1 .. 8-4 (see 'nyx-net mario')\n");
  return 0;
}

int CmdFuzz(const Args& args) {
  const std::string target = args.Get("target");
  if (FindTarget(target) == std::nullopt) {
    fprintf(stderr, "unknown target '%s' (see 'nyx-net targets')\n", target.c_str());
    return 2;
  }
  const std::optional<FuzzerKind> policy = PolicyArg(args, "balanced");
  if (!policy.has_value()) {
    return 2;
  }
  const FuzzerKind kind = *policy;
  if (args.Has("faults") && !IsNyxKind(kind)) {
    fprintf(stderr, "--faults needs a Nyx policy (none, balanced or aggressive), not '%s'\n",
            args.Get("policy").c_str());
    return 2;
  }
  auto reg = FindTarget(target);
  const Spec spec = reg->make_spec();

  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = args.GetU64("vm-pages", 1024);
  engine_cfg.asan = args.Has("asan");
  engine_cfg.seed = args.GetU64("seed", 1);
  if (engine_cfg.vm.mem_pages < kMinGuestPages) {
    fprintf(stderr,
            "--vm-pages %zu is smaller than the guest layout, which needs at least %llu pages\n",
            engine_cfg.vm.mem_pages, static_cast<unsigned long long>(kMinGuestPages));
    return 2;
  }
  if (engine_cfg.vm.mem_pages > kMaxGuestPages) {
    fprintf(stderr, "--vm-pages %zu is larger than the largest guest, %llu pages (4 GiB)\n",
            engine_cfg.vm.mem_pages, static_cast<unsigned long long>(kMaxGuestPages));
    return 2;
  }

  CampaignLimits limits;
  limits.vtime_seconds = args.GetDouble("vtime", 120.0);
  limits.wall_seconds = args.GetDouble("wall", 600.0);
  limits.stop_on_crash = args.Has("stop-on-crash");

  std::optional<Workdir> workdir;
  if (args.Has("workdir")) {
    workdir = Workdir::Open(args.Get("workdir"));
    if (!workdir.has_value()) {
      fprintf(stderr, "cannot open workdir %s\n", args.Get("workdir").c_str());
      return 2;
    }
  }

  CampaignResult result;
  if (IsNyxKind(kind)) {
    FuzzerConfig fcfg;
    fcfg.policy = NyxPolicyFor(kind);
    fcfg.seed = engine_cfg.seed;
    fcfg.fault_injection = args.Has("faults");
    NyxFuzzer fuzzer(engine_cfg, reg->factory, spec, fcfg);
    size_t seeds = 0;
    if (workdir.has_value() && args.Has("resume")) {
      for (Program& p : workdir->LoadQueue(spec)) {
        fuzzer.AddSeed(std::move(p));
        seeds++;
      }
      printf("resumed %zu corpus entries from %s\n", seeds, workdir->path().c_str());
    }
    if (seeds == 0) {
      for (Program& p : reg->make_seeds(spec)) {
        fuzzer.AddSeed(std::move(p));
      }
    }
    printf("fuzzing %s with Nyx-Net (%s policy), %.0f virtual seconds...\n", target.c_str(),
           args.Get("policy", "balanced").c_str(), limits.vtime_seconds);
    result = fuzzer.Run(limits);
    if (workdir.has_value() && !workdir->SaveCampaign(result, fuzzer.corpus())) {
      fprintf(stderr, "cannot save the campaign to %s\n", workdir->path().c_str());
      return 1;
    }
  } else {
    CampaignSpec cs;
    cs.target = target;
    cs.fuzzer = kind;
    cs.limits = limits;
    cs.seed = engine_cfg.seed;
    cs.asan = engine_cfg.asan;
    cs.vm_pages = engine_cfg.vm.mem_pages;
    printf("fuzzing %s with baseline %s, %.0f virtual seconds...\n", target.c_str(),
           FuzzerKindName(kind), limits.vtime_seconds);
    CampaignOutcome out = RunCampaign(cs);
    if (!out.supported) {
      fprintf(stderr, "this baseline cannot run %s (n/a)\n", target.c_str());
      return 1;
    }
    result = std::move(out.result);
  }

  printf("\nexecs:      %llu (%.1f per virtual second)\n",
         static_cast<unsigned long long>(result.execs), result.execs_per_vsecond);
  printf("coverage:   %zu branch sites, %zu edges\n", result.branch_coverage,
         result.edge_coverage);
  printf("corpus:     %zu entries\n", result.corpus_size);
  printf("snapshots:  %llu incremental created, %llu reused\n",
         static_cast<unsigned long long>(result.incremental_creates),
         static_cast<unsigned long long>(result.incremental_restores));
  if (result.contract_soft_failures != 0) {
    printf("contracts:  %llu soft failure(s) — see workdir stats.txt\n",
           static_cast<unsigned long long>(result.contract_soft_failures));
  }
  if (result.faults_injected != 0) {
    printf("faults:     %llu injected, %llu input bytes dropped\n",
           static_cast<unsigned long long>(result.faults_injected),
           static_cast<unsigned long long>(result.faulted_bytes));
  }
  printf("crashes:    %zu\n", result.crashes.size());
  for (const auto& [id, rec] : result.crashes) {
    printf("  %08x %-40s x%llu first at %.1f vsec\n", id, rec.kind.c_str(),
           static_cast<unsigned long long>(rec.count), rec.first_seen_vsec);
  }
  return 0;
}

int CmdPcap(const Args& args) {
  auto reg = FindTarget(args.Get("target"));
  if (!reg.has_value()) {
    fprintf(stderr, "unknown target '%s'\n", args.Get("target").c_str());
    return 2;
  }
  const Spec spec = reg->make_spec();
  FILE* f = fopen(args.Get("pcap").c_str(), "rb");
  if (f == nullptr) {
    fprintf(stderr, "cannot read %s\n", args.Get("pcap").c_str());
    return 2;
  }
  Bytes raw;
  uint8_t buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) {
    raw.insert(raw.end(), buf, buf + n);
  }
  fclose(f);

  const std::string split = args.Get("split", "crlf");
  const std::optional<SplitStrategy> strategy = ParseSplitStrategy(split);
  if (!strategy.has_value()) {
    fprintf(stderr, "unknown --split '%s'; expected crlf|len16|len32|segment\n",
            split.c_str());
    return 2;
  }

  const uint64_t port_arg = args.GetU64("port", reg->factory()->info().port);
  if (port_arg > UINT16_MAX) {
    fprintf(stderr, "--port %llu is out of range (0-65535)\n",
            static_cast<unsigned long long>(port_arg));
    return 2;
  }
  const uint16_t port = static_cast<uint16_t>(port_arg);
  auto program = ProgramFromPcap(spec, raw, port, *strategy);
  if (!program.has_value()) {
    fprintf(stderr, "no usable client->server traffic for port %u found\n", port);
    return 1;
  }
  printf("converted: %zu ops, %zu packets, %zu payload bytes\n", program->ops.size(),
         program->PacketCount(spec), program->TotalDataBytes());
  const std::string out = args.Get("workdir", "nyx-out");
  auto workdir = Workdir::Open(out);
  if (!workdir.has_value() || !workdir->SaveQueueEntry(*program, 0)) {
    fprintf(stderr, "cannot write seed into %s/queue\n", out.c_str());
    return 1;
  }
  printf("seed written to %s/queue/id_000000.nyx (fuzz with --workdir %s --resume)\n",
         out.c_str(), out.c_str());
  return 0;
}

int CmdRepro(const Args& args) {
  auto reg = FindTarget(args.Get("target"));
  if (!reg.has_value()) {
    fprintf(stderr, "unknown target '%s'\n", args.Get("target").c_str());
    return 2;
  }
  const Spec spec = reg->make_spec();
  auto program = Workdir::ReadProgram(args.Get("input"), spec);
  if (!program.has_value()) {
    fprintf(stderr, "cannot parse %s as a bytecode program\n", args.Get("input").c_str());
    return 2;
  }
  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = 1024;
  engine_cfg.asan = args.Has("asan");
  engine_cfg.seed = args.GetU64("seed", 1);
  NyxEngine engine(engine_cfg, reg->factory, spec);
  engine.Boot();
  CoverageMap cov;
  const ExecResult r = engine.Run(*program, cov);
  printf("packets delivered: %zu\n", r.packets_delivered);
  printf("virtual time:      %.3f ms\n", static_cast<double>(r.vtime_ns) * 1e-6);
  const auto responses = engine.LastResponses();
  printf("responses:         %zu\n", responses.size());
  for (size_t i = 0; i < responses.size() && i < 16; i++) {
    std::string line = ToString(responses[i]).substr(0, 70);
    for (char& c : line) {
      if (c == '\r' || c == '\n') {
        c = ' ';
      }
    }
    printf("  <- %s\n", line.c_str());
  }
  if (r.crash.crashed) {
    printf("CRASH: id=%08x kind=%s\n", r.crash.crash_id, r.crash.kind.c_str());
    return 1;
  }
  printf("no crash\n");
  return 0;
}

int CmdTrim(const Args& args) {
  auto reg = FindTarget(args.Get("target"));
  if (!reg.has_value()) {
    fprintf(stderr, "unknown target '%s' (see 'nyx-net targets')\n", args.Get("target").c_str());
    return 2;
  }
  const Spec spec = reg->make_spec();
  auto program = Workdir::ReadProgram(args.Get("input"), spec);
  if (!program.has_value()) {
    fprintf(stderr, "cannot parse %s as a bytecode program\n", args.Get("input").c_str());
    return 2;
  }
  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = 1024;
  engine_cfg.seed = args.GetU64("seed", 1);
  NyxEngine engine(engine_cfg, reg->factory, spec);
  engine.Boot();

  TrimStats stats;
  const Program trimmed = TrimProgram(engine, spec, *program, &stats);

  printf("trim:\n");
  printf("  ops:         %zu -> %zu\n", stats.ops_before, stats.ops_after);
  printf("  bytes:       %zu -> %zu\n", stats.bytes_before, stats.bytes_after);
  printf("  probe execs: %zu\n", stats.probe_execs);
  if (stats.audit_divergences != 0) {
    printf("  AUDIT: %llu divergence(s) during probing\n",
           static_cast<unsigned long long>(stats.audit_divergences));
  }
  const std::string out = args.Get("out");
  if (!out.empty()) {
    if (!Workdir::WriteProgram(out, trimmed)) {
      fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    printf("  written to   %s\n", out.c_str());
  }
  return stats.audit_divergences == 0 ? 0 : 1;
}

// Batch static verification over a corpus directory. Unlike a corpus load
// (which logs a rejected file and skips it) this surfaces the full
// per-file verdict, so it doubles as a corpus linter.
int CmdVerify(const std::string& dir, const Args& args) {
  auto reg = FindTarget(args.Get("target"));
  if (!reg.has_value()) {
    fprintf(stderr, "unknown target '%s' (see 'nyx-net targets')\n", args.Get("target").c_str());
    return 2;
  }
  const Spec spec = reg->make_spec();

  const std::vector<std::string> files = Workdir::ListFiles(dir, ".nyx");
  if (files.empty()) {
    fprintf(stderr, "no .nyx files in %s\n", dir.c_str());
    return 2;
  }

  size_t failures = 0;
  for (const std::string& file : files) {
    spec::Result verdict;
    const std::optional<Program> program = Workdir::ReadProgram(file, spec, &verdict);
    if (program.has_value()) {
      printf("%-40s ok   ops=%zu\n", file.c_str(), program->ops.size());
      continue;
    }
    failures++;
    if (verdict.ok()) {
      printf("%-40s FAIL (unreadable)\n", file.c_str());
    } else {
      printf("%-40s FAIL %s\n", file.c_str(), verdict.Summary().c_str());
    }
  }
  printf("%zu file(s), %zu failure(s)\n", files.size(), failures);
  return failures == 0 ? 0 : 1;
}

int CmdMario(const Args& args) {
  const std::string level = args.Get("level", "1-1");
  if (FindLevel(level) == nullptr) {
    fprintf(stderr, "unknown level '%s' (1-1 .. 8-4)\n", level.c_str());
    return 2;
  }
  const std::optional<FuzzerKind> kind = PolicyArg(args, "aggressive");
  if (!kind.has_value()) {
    return 2;
  }
  printf("solving %s with %s...\n", level.c_str(), FuzzerKindName(*kind));
  CampaignOutcome out = RunMarioCampaign(level, *kind, args.GetDouble("wall", 60.0),
                                         args.GetU64("seed", 1));
  const LevelDef* lv = FindLevel(level);
  if (out.result.ijon_goal_vsec >= 0) {
    printf("SOLVED in %.1f virtual seconds (%llu executions)\n", out.result.ijon_goal_vsec,
           static_cast<unsigned long long>(out.result.execs));
    return 0;
  }
  printf("unsolved; best progress %.1f of %u tiles\n",
         static_cast<double>(out.result.ijon_best) / kSub, lv->length);
  return 1;
}

}  // namespace
}  // namespace nyx

int main(int argc, char** argv) {
  using namespace nyx;
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const std::optional<Args> parsed = ParseArgs(argc, argv, 2);
  if (!parsed.has_value()) {
    return 2;
  }
  const Args& args = *parsed;
  if (cmd == "targets") {
    return CmdTargets();
  }
  if (cmd == "fuzz") {
    return CmdFuzz(args);
  }
  if (cmd == "pcap") {
    return CmdPcap(args);
  }
  if (cmd == "repro") {
    return CmdRepro(args);
  }
  if (cmd == "trim") {
    return CmdTrim(args);
  }
  if (cmd == "verify") {
    // The directory is positional: nyx-net verify DIR --target NAME.
    if (argc < 3 || strncmp(argv[2], "--", 2) == 0) {
      fprintf(stderr, "usage: nyx-net verify DIR --target NAME\n");
      return 2;
    }
    return CmdVerify(argv[2], args);
  }
  if (cmd == "mario") {
    return CmdMario(args);
  }
  return Usage();
}
