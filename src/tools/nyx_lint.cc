// Repo-specific lint checks that clang-tidy cannot express. Run as a ctest
// (`nyx_lint <repo root>`); exits nonzero and prints file:line for every
// violation. `nyx_lint --self-test` runs the rules over embedded fixtures
// (the negative tests: each rule must fire on its bad example and stay
// silent on the annotated/allowlisted one).
//
// Rules:
//   raw-rand        libc rand()/srand() outside src/common/rng.h. All
//                   randomness must flow through the seeded xoshiro Rng so
//                   campaigns replay deterministically.
//   raw-sync        std::mutex / std::condition_variable / std::lock_guard /
//                   std::unique_lock / std::scoped_lock / std::shared_mutex
//                   outside src/common/sync.{h,cc}. All locking goes through
//                   the capability-annotated layer so -Wthread-safety and
//                   the lock-hierarchy analyzer see every acquisition.
//   raw-time        std::chrono / time() / clock_gettime / gettimeofday in
//                   src/ outside the harness and the two wall-clock budget
//                   sites. Fuzzing logic runs on the virtual clock
//                   (src/common/vclock.h); wall-clock reads anywhere else
//                   make executions unreproducible.
//   raw-env         getenv outside src/common/env.cc. Configuration comes
//                   in through the typed accessors in src/common/env.h so
//                   every knob is documented and greppable in one place.
//   raw-errno       bare negative errno literals (-11, -104, ...) in src/
//                   outside src/netemu/. The emulator's errno surface is
//                   centralized in src/netemu/errno_table.h; callers compare
//                   against kErrAgain/kErrConnReset/... and log through
//                   ErrName() so a renumbering can never silently skew a
//                   target's error handling.
//   raw-metrics     static-duration std::atomic<integer> declarations
//                   outside the telemetry layer itself. Loose atomic
//                   counters never reach stats.txt / metrics.json; register
//                   a Counter in the MetricRegistry (src/common/telemetry.h)
//                   instead, or annotate NYX_RAW_METRIC_OK with a reason
//                   (bootstrap ordering, config flags).
//   snapshot-state  mutable file-scope / function-local statics,
//                   thread_locals and g_ globals in the snapshot-relevant
//                   directories (src/vm, src/netemu, src/targets, src/mario,
//                   src/fuzz) must carry NYX_SNAPSHOT_STATE (registered in
//                   the SnapshotStateRegistry with capture/restore hooks) or
//                   NYX_EXEC_EPHEMERAL (re-initialized every exec). State
//                   with neither annotation survives a snapshot restore
//                   unrestored — the classic irreproducible-execution bug.
//   raw-mprotect    mprotect outside the dirty tracker
//                   (src/vm/guest_memory.{h,cc}), and userfaultfd write
//                   protection anywhere. All page-protection changes flow
//                   through GuestMemory so it always knows which pages are
//                   armed; one-off protection changes that are not dirty
//                   tracking use nyx::RawProtect.
//   knob-doc        every "NYX_..." literal passed to env::Flag, FlagOr,
//                   SizeOr, DoubleOr or StringOr in src/ or bench/ is named
//                   at the start of a `//   NYX_...` line of the knob list
//                   in src/common/env.h, and every knob named there is read
//                   by such a call. Calls that pass a variable are out of
//                   scope.
//   include-path    quoted project includes must use the full path from the
//                   repository root ("src/...").
//   local-warnings  -Wall/-Wextra/-Wno-* belong in the top-level
//                   CMakeLists.txt only; per-target re-additions drift.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;
  size_t line;
  std::string rule;
  std::string message;
};

std::vector<Violation> g_violations;

void Report(const std::string& file, size_t line, const char* rule, std::string message) {
  g_violations.push_back({file, line, rule, std::move(message)});
}

bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

// True if `token` occurs in `line` as a standalone identifier (not a suffix
// of a longer name like my_rand( or a member like rng.rand().
bool HasBareCall(const std::string& line, const std::string& token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool start_ok = pos == 0 || (!IsIdentChar(line[pos - 1]) && line[pos - 1] != '.' &&
                                       line[pos - 1] != ':' && line[pos - 1] != '>' &&
                                       line[pos - 1] != '"');  // string literal, not a call
    if (start_ok) {
      return true;
    }
    pos += token.size();
  }
  return false;
}

// Strips a trailing // comment (good enough for this codebase; string
// literals containing "//" would be false negatives, not false positives).
std::string StripLineComment(const std::string& line) {
  const size_t pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string TrimLeft(const std::string& s) {
  size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) {
    i++;
  }
  return s.substr(i);
}

// ---- snapshot-state rule -------------------------------------------------

// Directories whose mutable statics must be snapshot-annotated: everything a
// snapshot restore is supposed to cover. src/fuzz is included (stricter than
// the bare minimum) because the engine and guest runtime hold the
// interpreter state the aux blob must capture.
bool InSnapshotDirs(const std::string& rel) {
  return StartsWith(rel, "src/vm/") || StartsWith(rel, "src/netemu/") ||
         StartsWith(rel, "src/targets/") || StartsWith(rel, "src/mario/") ||
         StartsWith(rel, "src/fuzz/");
}

// Heuristic for "this line declares mutable static-duration state":
// `static`/`thread_local` declarations and namespace-scope `g_` globals,
// minus const/constexpr data, static_assert/static_cast and function
// declarations (a '(' with no preceding '=' is a parameter list, not an
// initializer).
bool DeclaresMutableStatic(const std::string& code) {
  const std::string t = TrimLeft(code);
  const bool static_decl = StartsWith(t, "static ") || StartsWith(t, "thread_local ") ||
                           t.find(" thread_local ") != std::string::npos;
  if (static_decl) {
    if (t.find("constexpr") != std::string::npos || t.find("static const ") != std::string::npos ||
        StartsWith(t, "static_assert") || t.find("static_cast") != std::string::npos) {
      return false;
    }
    const size_t paren = t.find('(');
    const size_t eq = t.find('=');
    if (paren != std::string::npos && (eq == std::string::npos || paren < eq)) {
      return false;  // function declaration/definition
    }
    return true;
  }
  // Namespace-scope globals by naming convention: a `g_foo` token preceded
  // by a type (not at line start — that would be an assignment, not a
  // declaration) and followed by an initializer or array/semicolon.
  size_t pos = 0;
  while ((pos = t.find("g_", pos)) != std::string::npos) {
    const bool start_ok = pos > 0 && !IsIdentChar(t[pos - 1]) && t[pos - 1] != '.' &&
                          t[pos - 1] != ':' && t[pos - 1] != '>';
    if (!start_ok || t.find('=') < pos) {
      pos += 2;
      continue;
    }
    size_t end = pos;
    while (end < t.size() && IsIdentChar(t[end])) {
      end++;
    }
    while (end < t.size() && (t[end] == ' ' || t[end] == '\t')) {
      end++;
    }
    if (end < t.size() && (t[end] == '=' || t[end] == '{' || t[end] == '[' || t[end] == ';')) {
      return true;
    }
    pos += 2;
  }
  return false;
}

// ---- raw-errno rule ------------------------------------------------------

// Every errno value the emulator can return (src/netemu/errno_table.h),
// longest literal first so "-11" never fires inside "-110".
constexpr const char* kErrnoLiterals[] = {"-110", "-107", "-104", "-32", "-24",
                                          "-22",  "-11",  "-9",   "-4"};

// True when `code` uses one of the errno values as a bare literal: the minus
// sign in unary position (after =, (, comma, comparison, return/case, ...)
// directly followed by the digits. Binary arithmetic like `len - 4` and
// longer numbers like -115 stay out of scope.
bool HasBareErrnoLiteral(const std::string& code) {
  for (const char* lit : kErrnoLiterals) {
    const size_t n = std::string(lit).size();
    size_t pos = 0;
    while ((pos = code.find(lit, pos)) != std::string::npos) {
      const size_t after = pos + n;
      if (after < code.size() && (IsIdentChar(code[after]) || code[after] == '.')) {
        pos = after;  // part of a longer number or a float
        continue;
      }
      size_t i = pos;
      while (i > 0 && (code[i - 1] == ' ' || code[i - 1] == '\t')) {
        i--;
      }
      if (i == 0) {
        return true;  // the literal opens the line
      }
      const char prev = code[i - 1];
      if (prev == '=' || prev == '(' || prev == ',' || prev == '<' || prev == '>' ||
          prev == '!' || prev == '{' || prev == ';' || prev == '?' || prev == ':' ||
          prev == '&' || prev == '|') {
        return true;
      }
      if (IsIdentChar(prev)) {
        size_t start = i;
        while (start > 0 && IsIdentChar(code[start - 1])) {
          start--;
        }
        const std::string token = code.substr(start, i - start);
        if (token == "return" || token == "case") {
          return true;
        }
      }
      pos = after;
    }
  }
  return false;
}

// ---- raw-metrics rule ----------------------------------------------------

// True if the line declares a std::atomic over an integer type — the shape
// of an ad-hoc counter. Pointer/enum/struct atomics (hooks, cached levels)
// are not counters and stay out of scope.
bool DeclaresAtomicInteger(const std::string& code) {
  const size_t pos = code.find("std::atomic<");
  if (pos == std::string::npos) {
    return false;
  }
  const std::string inner = code.substr(pos + 12);
  for (const char* ty : {"int", "unsigned", "long", "short", "size_t", "uint8_t", "uint16_t",
                         "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
                         "std::size_t", "std::uint32_t", "std::uint64_t"}) {
    if (StartsWith(inner, ty)) {
      return true;
    }
  }
  return false;
}

// ---- knob-doc rule -------------------------------------------------------

struct KnobSite {
  std::string file;
  size_t line;
};

// Knob -> first site, filled while the files are linted and compared by
// CheckKnobDoc once all of them are.
std::map<std::string, KnobSite> g_knobs_read;
std::map<std::string, KnobSite> g_knobs_listed;

constexpr const char* kKnobListFile = "src/common/env.h";

// Records every "NYX_..." literal passed straight to a typed env accessor.
// env::Flag( and a bare Flag( both count; IsFlag( or a Flag( member of
// something else does not.
void CollectKnobReads(const std::string& rel, size_t lineno, const std::string& code) {
  for (const char* accessor : {"Flag(", "FlagOr(", "SizeOr(", "DoubleOr(", "StringOr("}) {
    const std::string call(accessor);
    size_t pos = 0;
    while ((pos = code.find(call, pos)) != std::string::npos) {
      const bool start_ok = pos == 0 || (!IsIdentChar(code[pos - 1]) && code[pos - 1] != '.' &&
                                         code[pos - 1] != '>');
      pos += call.size();
      while (pos < code.size() && code[pos] == ' ') {
        pos++;
      }
      if (!start_ok || code.compare(pos, 5, "\"NYX_") != 0) {
        continue;
      }
      const size_t end = code.find('"', pos + 1);
      if (end != std::string::npos) {
        g_knobs_read.emplace(code.substr(pos + 1, end - pos - 1), KnobSite{rel, lineno});
      }
    }
  }
}

// Records the knobs named at the start of a knob-list line: `//   NYX_A`,
// or several joined as `//   NYX_A / NYX_B`, then the description.
void CollectKnobList(const std::string& rel, size_t lineno, const std::string& line) {
  if (!StartsWith(line, "//   NYX_")) {
    return;
  }
  size_t pos = 5;  // past "//   "
  while (true) {
    size_t end = pos;
    while (end < line.size() && IsIdentChar(line[end])) {
      end++;
    }
    g_knobs_listed.emplace(line.substr(pos, end - pos), KnobSite{rel, lineno});
    if (line.compare(end, 7, " / NYX_") != 0) {
      return;
    }
    pos = end + 3;
  }
}

void CheckKnobDoc() {
  for (const auto& [knob, site] : g_knobs_read) {
    if (g_knobs_listed.count(knob) == 0) {
      Report(site.file, site.line, "knob-doc",
             knob + " is read here but not listed in the knob list of " + kKnobListFile);
    }
  }
  for (const auto& [knob, site] : g_knobs_listed) {
    if (g_knobs_read.count(knob) == 0) {
      Report(site.file, site.line, "knob-doc",
             knob + " is listed but nothing in src/ or bench/ reads it; drop it from the list");
    }
  }
}

// ---- per-file driver -----------------------------------------------------

void LintSourceLines(const std::string& rel, const std::vector<std::string>& lines) {
  const bool rng_impl = rel == "src/common/rng.h";
  // The linter itself must spell the banned tokens to ban them; env.cc is
  // the one sanctioned getenv call site.
  const bool self = rel == "src/tools/nyx_lint.cc";
  const bool sync_impl = rel == "src/common/sync.h" || rel == "src/common/sync.cc" || self;
  const bool env_impl = rel == "src/common/env.cc" || self;
  // raw-time applies to fuzzing logic only: src/ minus the harness (which
  // owns wall-clock budgets and progress reporting) and the two documented
  // wall-clock stop conditions. Benches and tests measure real time by
  // design.
  // telemetry.cc owns the one sanctioned clock_gettime site (phase timers
  // measure host cost, which is what a profiler is for; the results never
  // feed back into fuzzing decisions).
  const bool time_exempt = !StartsWith(rel, "src/") || StartsWith(rel, "src/harness/") ||
                           rel == "src/fuzz/fuzzer.cc" || rel == "src/baselines/baseline.cc" ||
                           rel == "src/common/telemetry.cc" || self;
  // The metric layer is built out of the raw atomics it exists to replace
  // everywhere else.
  const bool metrics_impl = StartsWith(rel, "src/common/telemetry.") || self;
  const bool snapshot_dirs = InSnapshotDirs(rel);
  // The dirty tracker is built out of the raw protection syscall it wraps.
  const bool protect_impl = StartsWith(rel, "src/vm/guest_memory.");
  // The errno table itself (and the rest of src/netemu/, which implements
  // the libc surface) defines the literals; everything else in src/ names
  // them. Tests and benches compare via the constants too, but are not
  // linted for it — assertions on raw values there are deliberate.
  const bool errno_impl = StartsWith(rel, "src/netemu/") || !StartsWith(rel, "src/") || self;
  // Knob reads count in the program and its benches; the linter's own
  // fixtures are not reads.
  const bool knob_reads = (StartsWith(rel, "src/") || StartsWith(rel, "bench/")) && !self;
  const bool knob_list = rel == kKnobListFile;

  // Countdown of lines during which a NYX_SNAPSHOT_STATE/NYX_EXEC_EPHEMERAL
  // annotation still covers a following declaration (annotation line itself
  // plus the next three lines, enough for a multi-line declaration).
  int annotated = 0;
  // Same countdown scheme for NYX_RAW_METRIC_OK (raw-metrics rule).
  int metric_ok = 0;

  for (size_t i = 0; i < lines.size(); i++) {
    const size_t lineno = i + 1;
    const std::string code = StripLineComment(lines[i]);

    if (knob_reads) {
      CollectKnobReads(rel, lineno, code);
    }
    if (knob_list) {
      CollectKnobList(rel, lineno, lines[i]);
    }

    if (!rng_impl && !self &&
        (HasBareCall(code, "rand(") || HasBareCall(code, "srand(") ||
         HasBareCall(code, "random(") || HasBareCall(code, "rand_r("))) {
      Report(rel, lineno, "raw-rand",
             "use nyx::Rng (src/common/rng.h); libc rand breaks replay determinism");
    }

    if (!sync_impl) {
      // std::condition_variable also catches std::condition_variable_any;
      // std::shared_mutex / std::recursive_mutex have no annotated wrapper
      // on purpose (the lock hierarchy bans reader/writer and re-entrant
      // locking until a use case earns them).
      for (const char* primitive :
           {"std::mutex", "std::condition_variable", "std::lock_guard",
            "std::unique_lock", "std::scoped_lock", "std::shared_mutex",
            "std::shared_lock", "std::recursive_mutex"}) {
        if (code.find(primitive) != std::string::npos) {
          Report(rel, lineno, "raw-sync",
                 std::string(primitive) +
                     " is banned outside src/common/sync.h; use the annotated "
                     "nyx::Mutex/MutexLock/CondVar layer");
          break;
        }
      }
    }

    if (!time_exempt &&
        (code.find("std::chrono") != std::string::npos || HasBareCall(code, "time(") ||
         HasBareCall(code, "clock_gettime(") || HasBareCall(code, "gettimeofday("))) {
      Report(rel, lineno, "raw-time",
             "wall-clock reads are banned in fuzzing logic; use the virtual clock "
             "(src/common/vclock.h) so executions replay deterministically");
    }

    if (!self && ((!protect_impl && HasBareCall(code, "mprotect(")) ||
                  code.find("userfaultfd") != std::string::npos ||
                  code.find("UFFDIO_") != std::string::npos)) {
      Report(rel, lineno, "raw-mprotect",
             "page-protection changes are banned outside src/vm/guest_memory.*, and "
             "userfaultfd everywhere; go through GuestMemory (or nyx::RawProtect for "
             "one-off non-tracking protection changes)");
    }

    if (!env_impl && code.find("getenv") != std::string::npos) {
      Report(rel, lineno, "raw-env",
             "getenv is banned outside src/common/env.cc; add a typed accessor "
             "to src/common/env.h");
    }

    if (!errno_impl && HasBareErrnoLiteral(code)) {
      Report(rel, lineno, "raw-errno",
             "bare negative errno literals are banned outside src/netemu/; "
             "compare against the named constants in src/netemu/errno_table.h "
             "(kErrAgain, kErrConnReset, ...) and log through ErrName()");
    }

    if (!metrics_impl) {
      if (code.find("NYX_RAW_METRIC_OK") != std::string::npos) {
        metric_ok = 4;
      }
      if (metric_ok == 0 && DeclaresMutableStatic(code) && DeclaresAtomicInteger(code)) {
        Report(rel, lineno, "raw-metrics",
               "loose static atomic counters never reach stats.txt/metrics.json; "
               "register a Counter in the MetricRegistry (src/common/telemetry.h) "
               "or annotate NYX_RAW_METRIC_OK with a reason");
      }
      if (metric_ok > 0) {
        metric_ok--;
      }
    }

    if (snapshot_dirs) {
      if (code.find("NYX_SNAPSHOT_STATE") != std::string::npos ||
          code.find("NYX_EXEC_EPHEMERAL") != std::string::npos) {
        annotated = 4;
      }
      if (annotated == 0 && DeclaresMutableStatic(code)) {
        Report(rel, lineno, "snapshot-state",
               "mutable static-duration state in a snapshot-covered directory "
               "must be annotated NYX_SNAPSHOT_STATE (registered with "
               "capture/restore hooks) or NYX_EXEC_EPHEMERAL (re-initialized "
               "every exec); see src/vm/state_registry.h");
      }
      if (annotated > 0) {
        annotated--;
      }
    }

    const size_t inc = code.find("#include \"");
    if (inc != std::string::npos) {
      const size_t start = inc + 10;
      const size_t end = code.find('"', start);
      if (end != std::string::npos) {
        const std::string path = code.substr(start, end - start);
        if (path.rfind("src/", 0) != 0) {
          Report(rel, lineno, "include-path",
                 "project includes use the full path from the repo root, got \"" + path + "\"");
        }
      }
    }
  }
}

void LintSourceFile(const fs::path& root, const fs::path& file) {
  std::ifstream in(file);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  LintSourceLines(fs::relative(file, root).string(), lines);
}

void LintCMakeFile(const fs::path& root, const fs::path& file) {
  const fs::path rel = fs::relative(file, root);
  std::ifstream in(file);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    lineno++;
    const size_t hash = line.find('#');
    const std::string code = hash == std::string::npos ? line : line.substr(0, hash);
    for (const char* flag : {"-Wall", "-Wextra", "-Wno-"}) {
      if (code.find(flag) != std::string::npos) {
        Report(rel.string(), lineno, "local-warnings",
               std::string(flag) + " is configured centrally in the top-level CMakeLists.txt");
        break;
      }
    }
  }
}

void LintTree(const fs::path& root, const char* subdir) {
  const fs::path dir = root / subdir;
  if (!fs::is_directory(dir)) {
    return;
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const fs::path& p = entry.path();
    const std::string ext = p.extension().string();
    if (ext == ".cc" || ext == ".h" || ext == ".cpp") {
      LintSourceFile(root, p);
    } else if (p.filename() == "CMakeLists.txt") {
      LintCMakeFile(root, p);
    }
  }
}

// ---- self-test -----------------------------------------------------------

// Each fixture is linted as if it were the named file; `want` is the rule
// expected to fire exactly `count` times (0 = rule must stay silent).
// `knob_list`, when set, is linted first as the one line of
// src/common/env.h, for the knob-doc rule.
struct Fixture {
  const char* name;
  const char* path;
  std::vector<const char*> lines;
  const char* want;
  size_t count;
  const char* knob_list = nullptr;
};

int SelfTest() {
  const std::vector<Fixture> fixtures = {
      {"unannotated file-scope static", "src/netemu/fixture.cc",
       {"static int g_counter = 0;"}, "snapshot-state", 1},
      {"unannotated function-local static", "src/targets/fixture.cc",
       {"void F() {", "  static uint64_t calls = 0;", "}"}, "snapshot-state", 1},
      {"unannotated thread_local", "src/fuzz/fixture.cc",
       {"thread_local int t_depth = 0;"}, "snapshot-state", 1},
      {"unannotated g_ global", "src/vm/fixture.cc",
       {"std::atomic<int> g_hook{nullptr};"}, "snapshot-state", 1},
      {"annotated static", "src/netemu/fixture.cc",
       {"NYX_SNAPSHOT_STATE(\"netemu.fixture\");", "static int g_counter = 0;"},
       "snapshot-state", 0},
      {"annotated thread_local", "src/fuzz/fixture.cc",
       {"NYX_EXEC_EPHEMERAL(\"fuzz.fixture\");", "thread_local int t_depth = 0;"},
       "snapshot-state", 0},
      {"const static is immutable", "src/vm/fixture.cc",
       {"static const std::string kName = \"x\";", "static constexpr int kN = 3;"},
       "snapshot-state", 0},
      {"static member function", "src/vm/fixture.h",
       {"  static uint8_t Classify(uint8_t hits);"}, "snapshot-state", 0},
      {"static outside snapshot dirs", "src/harness/fixture.cc",
       {"static int g_counter = 0;"}, "snapshot-state", 0},
      {"raw time call", "src/fuzz/fixture.cc",
       {"uint64_t now = time(nullptr);"}, "raw-time", 1},
      {"raw chrono", "src/vm/fixture.cc",
       {"auto t = std::chrono::steady_clock::now();"}, "raw-time", 1},
      {"chrono in harness is allowed", "src/harness/fixture.cc",
       {"auto t = std::chrono::steady_clock::now();"}, "raw-time", 0},
      {"chrono in bench is allowed", "bench/fixture.cc",
       {"auto t = std::chrono::steady_clock::now();"}, "raw-time", 0},
      {"mytime() is not time()", "src/fuzz/fixture.cc",
       {"uint64_t now = mytime();"}, "raw-time", 0},
      {"raw getenv", "src/harness/fixture.cc",
       {"const char* v = std::getenv(\"NYX_X\");"}, "raw-env", 1},
      {"getenv in bench", "bench/fixture.cc",
       {"const char* v = getenv(\"NYX_X\");"}, "raw-env", 1},
      {"raw rand", "src/fuzz/fixture.cc", {"int r = rand();"}, "raw-rand", 1},
      {"loose atomic counter", "src/fuzz/fixture.cc",
       {"std::atomic<uint64_t> g_execs{0};"}, "raw-metrics", 1},
      {"loose static atomic counter", "src/harness/fixture.cc",
       {"static std::atomic<int> hits = 0;"}, "raw-metrics", 1},
      {"annotated raw metric", "src/fuzz/fixture.cc",
       {"NYX_RAW_METRIC_OK(\"bootstrap ordering\");", "std::atomic<uint64_t> g_execs{0};"},
       "raw-metrics", 0},
      {"atomic hook is not a counter", "src/vm/fixture.cc",
       {"std::atomic<FaultHook> g_hook{nullptr};"}, "raw-metrics", 0},
      {"atomic member is not static", "src/common/fixture.h",
       {"  std::atomic<uint64_t> value_{0};"}, "raw-metrics", 0},
      {"telemetry impl may use raw atomics", "src/common/telemetry.cc",
       {"std::atomic<int> g_enabled{-1};"}, "raw-metrics", 0},
      {"clock_gettime in telemetry impl", "src/common/telemetry.cc",
       {"clock_gettime(CLOCK_MONOTONIC, &ts);"}, "raw-time", 0},
      {"raw mprotect in vm code", "src/vm/fixture.cc",
       {"mprotect(base, kPageSize, PROT_READ);"}, "raw-mprotect", 1},
      {"uffd ioctl outside guest memory", "src/fuzz/fixture.cc",
       {"ioctl(fd, UFFDIO_WRITEPROTECT, &wp);"}, "raw-mprotect", 1},
      {"uffd ioctl in guest memory", "src/vm/guest_memory.cc",
       {"ioctl(fd, UFFDIO_WRITEPROTECT, &wp);"}, "raw-mprotect", 1},
      {"mprotect in guest memory", "src/vm/guest_memory.cc",
       {"mprotect(base, kPageSize, PROT_READ);"}, "raw-mprotect", 0},
      {"RawProtect is not mprotect", "src/vm/fixture.cc",
       {"RawProtect(base, kPageSize, PROT_READ);"}, "raw-mprotect", 0},
      {"bare errno comparison", "src/targets/fixture.cc",
       {"if (n == -104) {"}, "raw-errno", 1},
      {"bare errno return", "src/fuzz/fixture.cc",
       {"return -110;"}, "raw-errno", 1},
      {"errno literal in netemu is the table", "src/netemu/fixture.h",
       {"inline constexpr int kErrConnReset = -104;"}, "raw-errno", 0},
      {"binary minus is not errno", "src/fuzz/fixture.cc",
       {"const size_t rest = len - 4;"}, "raw-errno", 0},
      {"longer negative number is not errno", "src/fuzz/fixture.cc",
       {"int x = -115;"}, "raw-errno", 0},
      {"named errno constant is fine", "src/targets/fixture.cc",
       {"if (n == kErrConnReset) {"}, "raw-errno", 0},
      {"errno literal in tests is deliberate", "tests/fixture.cc",
       {"EXPECT_EQ(n, -104);"}, "raw-errno", 0},
      {"unlisted knob read", "bench/fixture.cc",
       {"const size_t n = env::SizeOr(\"NYX_FIXTURE\", 12);"}, "knob-doc", 1},
      {"listed knob read", "src/fuzz/fixture.cc",
       {"const bool on = env::Flag(\"NYX_FIXTURE\");"}, "knob-doc", 0,
       "//   NYX_FIXTURE  a fixture knob"},
      {"listed knob nothing reads", "src/common/env.h",
       {"//   NYX_OTHER / NYX_FIXTURE  fixture knobs"}, "knob-doc", 2},
  };

  int failures = 0;
  for (const Fixture& f : fixtures) {
    g_violations.clear();
    g_knobs_read.clear();
    g_knobs_listed.clear();
    if (f.knob_list != nullptr) {
      LintSourceLines(kKnobListFile, {f.knob_list});
    }
    std::vector<std::string> lines;
    for (const char* l : f.lines) {
      lines.push_back(l);
    }
    LintSourceLines(f.path, lines);
    CheckKnobDoc();
    size_t hits = 0;
    for (const Violation& v : g_violations) {
      if (v.rule == f.want) {
        hits++;
      }
    }
    if (hits != f.count) {
      fprintf(stderr, "self-test FAIL: %s: expected %zu x %s, got %zu\n", f.name, f.count,
              f.want, hits);
      failures++;
    }
  }
  g_violations.clear();
  if (failures == 0) {
    fprintf(stderr, "nyx_lint self-test: all fixtures passed\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--self-test") {
    return SelfTest();
  }

  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::current_path();
  if (!fs::is_directory(root / "src")) {
    fprintf(stderr, "nyx_lint: %s does not look like the repo root (no src/)\n",
            root.string().c_str());
    return 2;
  }

  for (const char* subdir : {"src", "tests", "bench", "examples"}) {
    LintTree(root, subdir);
  }
  CheckKnobDoc();

  for (const Violation& v : g_violations) {
    fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
            v.message.c_str());
  }
  if (!g_violations.empty()) {
    fprintf(stderr, "nyx_lint: %zu violation(s)\n", g_violations.size());
    return 1;
  }
  return 0;
}
