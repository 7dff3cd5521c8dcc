// Telemetry layer: metric registry + per-exec phase profiler (DESIGN.md §11).
//
// Nyx-Net's headline result is throughput, and every optimization argument
// needs to say *where each microsecond of an exec goes*. The flat counters
// in stats.txt cannot answer that. This layer provides:
//
//  * MetricRegistry — named counters, gauges and log2-bucketed latency
//    histograms. Counters and histograms are backed by cache-line-padded
//    per-thread shards (same false-sharing discipline as common/sync.h), so
//    concurrent campaign workers never contend on a metric; reads merge the
//    shards. Counter bumps are relaxed atomics and safe from signal context
//    (the SIGSEGV dirty-tracking handler bumps one).
//  * A fixed phase taxonomy (enum Phase) covering the per-exec pipeline:
//    mutate → verify → snapshot-restore → dirty-reset → netemu → guest-run →
//    coverage-merge → frontier-sync → audit. Every phase owns a histogram of
//    self-time (nested phases subtract their children, so the breakdown sums
//    to wall time without double counting).
//  * ScopedPhase — RAII timer attributing wall time to a Phase. When
//    telemetry is disabled (the default) construction is one relaxed atomic
//    load and nothing else: the hot path stays within noise of an
//    uninstrumented build. The phase.<name>_ns histograms are the
//    profiler's only output.
//
// Enabling: NYX_TELEMETRY=1 turns on phase profiling. Benches flip it
// programmatically via SetTelemetryEnabled (table3's phase-breakdown pass).
//
// Wall-clock note: phase timing deliberately reads the *real* monotonic
// clock — it measures host cost, unlike the deterministic virtual clock that
// drives fuzzing logic (src/common/vclock.h). All reads live behind NowNs()
// in telemetry.cc, which is a sanctioned wall-clock site of the nyx_lint
// `raw-time` rule; telemetry never feeds back into execution, so
// determinism is unaffected (the audited campaign in tests/trace_test.cc
// holds this).

#ifndef SRC_COMMON_TELEMETRY_H_
#define SRC_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sync.h"

namespace nyx {
namespace telemetry {

// ---------------------------------------------------------------------------
// Phase taxonomy. Order is display order in breakdowns; kPhaseCount ends it.

enum class Phase : uint8_t {
  kMutate = 0,      // mutator: deriving the next input
  kVerify,          // bytecode verifier at trust boundaries
  kSnapshotRestore, // root/incremental restore incl. devices + aux blob
  kDirtyReset,      // dirty-page copy loops + tracker re-arm (inside restore)
  kNetemu,          // emulated network: connection setup, packet delivery
  kGuestRun,        // target code running until it blocks on input
  kCoverageMerge,   // folding the exec trace into global coverage
  kFrontierSync,    // sharded corpus exchange barrier (incl. wait time)
  kAudit,           // divergence auditor replays + fingerprint comparison
  kPhaseCount,
};

inline constexpr size_t kPhaseCount = static_cast<size_t>(Phase::kPhaseCount);

// Stable lowercase-dash name ("snapshot-restore"), used in stats dumps and
// BENCH_phase_breakdown.json.
const char* PhaseName(Phase phase);

// ---------------------------------------------------------------------------
// Global enable switch. Disabled-path cost anywhere in the hot layers is one
// relaxed load of this flag.

bool Enabled();
// Programmatic override (benches, tests). Takes effect immediately.
void SetTelemetryEnabled(bool enabled);
// Applies the environment policy: enabled when NYX_TELEMETRY=1. Called
// lazily on first Enabled() read; idempotent.
void InitFromEnv();

// Monotonic wall-clock nanoseconds. The only wall-clock read telemetry ever
// performs; see the header comment for why this is not the virtual clock.
uint64_t NowNs();

// ---------------------------------------------------------------------------
// Sharded storage geometry. A metric's mutable state is kShards slots, each
// on its own cache line; a thread owns slot (thread_index % kShards).

inline constexpr size_t kShards = 16;

struct alignas(kCacheLineSize) PaddedSlot {
  std::atomic<uint64_t> v{0};
};

// Index of the calling thread's shard slot (stable per thread).
size_t ThreadShard();

// ---------------------------------------------------------------------------
// Metric kinds. All three are registered by name in a MetricRegistry and
// never destroyed while the process runs (handles are stable pointers).

// Monotone event count. Bumps are relaxed and async-signal-safe.
class Counter {
 public:
  void Add(uint64_t n) {
    shards_[ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t Value() const;
  void Reset();

 private:
  PaddedSlot shards_[kShards];
};

// Last-write-wins instantaneous value (corpus size, shard count, ...).
// Gauges are set from one logical owner at a time, so a single slot is fine.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void SetDouble(double v);
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // Gauges optionally carry a double representation (vtime seconds, rates).
  double DoubleValue() const;
  bool is_double() const { return is_double_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  std::atomic<bool> is_double_{false};
};

// Log2-bucketed latency histogram: values land in bucket floor(log2(v))+1,
// bucket 0 holds zeros. 64 buckets cover the full uint64 range. Each shard
// row owns its cache lines, so concurrent recording never contends.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  // Bucket index a value lands in (exposed for tests and percentile math).
  static size_t BucketFor(uint64_t value);
  // Inclusive lower / exclusive upper bound of a bucket's value range.
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketHigh(size_t bucket);

  void Record(uint64_t value) {
    row_[ThreadShard() % kShards].bucket[BucketFor(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Cross-shard merged view.
  struct Snapshot {
    uint64_t counts[kBuckets] = {};
    uint64_t total = 0;
    // Percentile estimate: linear interpolation inside the covering bucket.
    double Percentile(double p) const;
  };
  Snapshot Snap() const;
  uint64_t Total() const { return Snap().total; }
  void Reset();

 private:
  // One shard row = 64 contiguous counters (8 cache lines), rows aligned so
  // two threads never split a line.
  struct alignas(kCacheLineSize) Row {
    std::atomic<uint64_t> bucket[kBuckets] = {};
  };
  Row row_[kShards];
};

// ---------------------------------------------------------------------------
// MetricRegistry: name → metric. Registration is idempotent (same name
// returns the same handle) and cheap-but-locked; handles are resolved once
// at setup time and bumped lock-free afterwards. A process-wide instance
// (Global()) backs the phase profiler and hot-layer counters; local
// instances back per-campaign dumps (src/fuzz/workdir.cc).

class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter* RegisterCounter(const std::string& name) NYX_EXCLUDES(mu_);
  Gauge* RegisterGauge(const std::string& name) NYX_EXCLUDES(mu_);
  Histogram* RegisterHistogram(const std::string& name) NYX_EXCLUDES(mu_);

  // Sorted-by-name snapshot of every metric, for the dump writers.
  struct Entry {
    std::string name;
    const Counter* counter = nullptr;      // exactly one of the three set
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  std::vector<Entry> Entries() const NYX_EXCLUDES(mu_);

  // Zeroes every counter and histogram (gauges keep their last value).
  // Used by benches between phase-breakdown passes.
  void ResetValues() NYX_EXCLUDES(mu_);

  MetricRegistry() = default;
  // Frees owned metrics: every pointer handed out by Register* dies with
  // the registry. Global() is never destroyed, so its pointers are stable
  // for the process lifetime; local registries (tests) must outlive theirs.
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

 private:
  struct Named {
    std::string name;
    uint8_t kind;  // 0 counter, 1 gauge, 2 histogram
    void* metric;
  };
  void* Find(const std::string& name, uint8_t kind) NYX_REQUIRES(mu_);

  mutable Mutex mu_{"telemetry.registry", LockRank::kAny};
  std::vector<Named> metrics_ NYX_GUARDED_BY(mu_);
};

// Per-phase self-time histogram (nanoseconds) in the global registry,
// named "phase.<name>_ns". Resolved lazily, stable thereafter.
Histogram* PhaseHistogram(Phase phase);

// ---------------------------------------------------------------------------
// ScopedPhase: attributes the enclosed wall time to `phase`. Nesting is
// explicit: a nested scope's total time is subtracted from its parent, so
// each histogram records *self* time and the per-exec breakdown sums to the
// exec's wall time. Reentrancy (same phase nested in itself) is fine — each
// level accounts its own self-time.

class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) {
    if (Enabled()) {
      Begin(phase);
    }
  }
  ~ScopedPhase() {
    if (armed_) {
      End();
    }
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  void Begin(Phase phase);
  void End();

  bool armed_ = false;
};

// Depth of the calling thread's open-phase stack. The engine registers
// "telemetry.phase_timers" as per-exec ephemeral with this ==0 as the idle
// invariant: no phase scope may straddle an execution boundary.
size_t PhaseDepth();

// ---------------------------------------------------------------------------
// Dump helpers shared by workdir stats writers and benches.

// "name value" lines, sorted by name; histograms dump total/p50/p90/p99.
std::string DumpText(const MetricRegistry& registry);
// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
// Histograms carry nonzero buckets ([bucket_low, count] pairs) plus
// total/p50/p90/p99 so downstream tooling needs no log2 knowledge.
std::string DumpJson(const MetricRegistry& registry);

}  // namespace telemetry
}  // namespace nyx

#endif  // SRC_COMMON_TELEMETRY_H_
