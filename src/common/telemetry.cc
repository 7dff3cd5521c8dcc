#include "src/common/telemetry.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "src/common/check.h"
#include "src/common/env.h"

namespace nyx {
namespace telemetry {

namespace {

// -1 = environment not consulted yet; 0/1 after InitFromEnv or an explicit
// SetTelemetryEnabled. The disabled hot path is one relaxed load of this.
std::atomic<int> g_enabled{-1};

std::atomic<size_t> g_next_shard{0};

// Open-phase stack frame. child_ns accumulates the *total* time of directly
// nested scopes so End() can record self-time only.
struct PhaseFrame {
  Phase phase;
  uint64_t start_ns;
  uint64_t child_ns;
};

struct PhaseStack {
  PhaseFrame frames[32];
  size_t depth = 0;
};

thread_local PhaseStack t_phase_stack;

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kMutate:
      return "mutate";
    case Phase::kVerify:
      return "verify";
    case Phase::kSnapshotRestore:
      return "snapshot-restore";
    case Phase::kDirtyReset:
      return "dirty-reset";
    case Phase::kNetemu:
      return "netemu";
    case Phase::kGuestRun:
      return "guest-run";
    case Phase::kCoverageMerge:
      return "coverage-merge";
    case Phase::kFrontierSync:
      return "frontier-sync";
    case Phase::kAudit:
      return "audit";
    case Phase::kPhaseCount:
      break;
  }
  return "?";
}

void InitFromEnv() {
  int expected = -1;
  const int from_env = env::Flag("NYX_TELEMETRY") ? 1 : 0;
  g_enabled.compare_exchange_strong(expected, from_env, std::memory_order_relaxed);
}

bool Enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    InitFromEnv();
    v = g_enabled.load(std::memory_order_relaxed);
  }
  return v > 0;
}

void SetTelemetryEnabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

uint64_t NowNs() {
  // Sanctioned wall-clock site (nyx_lint raw-time): phase profiling measures
  // host cost, never fuzzing-visible time.
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

size_t ThreadShard() {
  thread_local size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

// ---------------------------------------------------------------------------
// Counter

uint64_t Counter::Value() const {
  uint64_t sum = 0;
  for (const PaddedSlot& s : shards_) {
    sum += s.v.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::Reset() {
  for (PaddedSlot& s : shards_) {
    s.v.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Gauge

void Gauge::SetDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  __builtin_memcpy(&bits, &v, sizeof(bits));
  value_.store(bits, std::memory_order_relaxed);
  is_double_.store(true, std::memory_order_relaxed);
}

double Gauge::DoubleValue() const {
  const uint64_t bits = value_.load(std::memory_order_relaxed);
  if (!is_double_.load(std::memory_order_relaxed)) {
    return static_cast<double>(bits);
  }
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// Histogram

size_t Histogram::BucketFor(uint64_t value) {
  // Clamp so values >= 2^63 share the top bucket instead of indexing past it.
  const size_t b = value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
  return b < kBuckets ? b : kBuckets - 1;
}

uint64_t Histogram::BucketLow(size_t bucket) {
  return bucket == 0 ? 0 : 1ull << (bucket - 1);
}

uint64_t Histogram::BucketHigh(size_t bucket) {
  return bucket == 0 ? 1 : (bucket >= kBuckets - 1 ? UINT64_MAX : 1ull << bucket);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot out;
  for (const Row& row : row_) {
    for (size_t b = 0; b < kBuckets; b++) {
      const uint64_t c = row.bucket[b].load(std::memory_order_relaxed);
      out.counts[b] += c;
      out.total += c;
    }
  }
  return out;
}

void Histogram::Reset() {
  for (Row& row : row_) {
    for (size_t b = 0; b < kBuckets; b++) {
      row.bucket[b].store(0, std::memory_order_relaxed);
    }
  }
}

double Histogram::Snapshot::Percentile(double p) const {
  if (total == 0) {
    return 0.0;
  }
  const double rank = p / 100.0 * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; b++) {
    if (counts[b] == 0) {
      continue;
    }
    seen += counts[b];
    if (static_cast<double>(seen) >= rank) {
      // Linear interpolation within the bucket's value range.
      const double lo = static_cast<double>(BucketLow(b));
      const double hi = static_cast<double>(BucketHigh(b));
      const double into = 1.0 - (static_cast<double>(seen) - rank) /
                                    static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
  }
  return static_cast<double>(BucketHigh(kBuckets - 1));
}

// ---------------------------------------------------------------------------
// MetricRegistry

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

MetricRegistry::~MetricRegistry() {
  // void* storage erases the type, so dispatch on kind for the delete.
  for (const Named& m : metrics_) {
    switch (m.kind) {
      case 0:
        delete static_cast<Counter*>(m.metric);
        break;
      case 1:
        delete static_cast<Gauge*>(m.metric);
        break;
      default:
        delete static_cast<Histogram*>(m.metric);
        break;
    }
  }
}

void* MetricRegistry::Find(const std::string& name, uint8_t kind) {
  for (const Named& m : metrics_) {
    if (m.name == name) {
      NYX_CHECK(m.kind == kind) << "metric " << name << " re-registered as a different kind";
      return m.metric;
    }
  }
  return nullptr;
}

Counter* MetricRegistry::RegisterCounter(const std::string& name) {
  MutexLock lock(mu_);
  if (void* existing = Find(name, 0)) {
    return static_cast<Counter*>(existing);
  }
  auto* c = new Counter();  // owned by the registry, freed in ~MetricRegistry
  metrics_.push_back({name, 0, c});
  return c;
}

Gauge* MetricRegistry::RegisterGauge(const std::string& name) {
  MutexLock lock(mu_);
  if (void* existing = Find(name, 1)) {
    return static_cast<Gauge*>(existing);
  }
  auto* g = new Gauge();
  metrics_.push_back({name, 1, g});
  return g;
}

Histogram* MetricRegistry::RegisterHistogram(const std::string& name) {
  MutexLock lock(mu_);
  if (void* existing = Find(name, 2)) {
    return static_cast<Histogram*>(existing);
  }
  auto* h = new Histogram();
  metrics_.push_back({name, 2, h});
  return h;
}

std::vector<MetricRegistry::Entry> MetricRegistry::Entries() const {
  std::vector<Entry> out;
  {
    MutexLock lock(mu_);
    out.reserve(metrics_.size());
    for (const Named& m : metrics_) {
      Entry e;
      e.name = m.name;
      switch (m.kind) {
        case 0:
          e.counter = static_cast<const Counter*>(m.metric);
          break;
        case 1:
          e.gauge = static_cast<const Gauge*>(m.metric);
          break;
        default:
          e.histogram = static_cast<const Histogram*>(m.metric);
          break;
      }
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return out;
}

void MetricRegistry::ResetValues() {
  MutexLock lock(mu_);
  for (const Named& m : metrics_) {
    if (m.kind == 0) {
      static_cast<Counter*>(m.metric)->Reset();
    } else if (m.kind == 2) {
      static_cast<Histogram*>(m.metric)->Reset();
    }
  }
}

Histogram* PhaseHistogram(Phase phase) {
  struct PhaseHistograms {
    Histogram* h[kPhaseCount];
    PhaseHistograms() {
      for (size_t i = 0; i < kPhaseCount; i++) {
        h[i] = MetricRegistry::Global().RegisterHistogram(
            std::string("phase.") + PhaseName(static_cast<Phase>(i)) + "_ns");
      }
    }
  };
  static PhaseHistograms histograms;
  return histograms.h[static_cast<size_t>(phase)];
}

// ---------------------------------------------------------------------------
// ScopedPhase

void ScopedPhase::Begin(Phase phase) {
  PhaseStack& st = t_phase_stack;
  if (st.depth >= std::size(st.frames)) {
    return;  // pathological nesting: drop rather than corrupt the stack
  }
  st.frames[st.depth++] = {phase, NowNs(), 0};
  armed_ = true;
}

void ScopedPhase::End() {
  PhaseStack& st = t_phase_stack;
  NYX_DCHECK(st.depth > 0);
  const PhaseFrame frame = st.frames[--st.depth];
  const uint64_t end_ns = NowNs();
  const uint64_t total = end_ns - frame.start_ns;
  const uint64_t self = total > frame.child_ns ? total - frame.child_ns : 0;
  PhaseHistogram(frame.phase)->Record(self);
  if (st.depth > 0) {
    st.frames[st.depth - 1].child_ns += total;
  }
}

size_t PhaseDepth() { return t_phase_stack.depth; }

// ---------------------------------------------------------------------------
// Dump writers

namespace {

std::string FmtDouble(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string DumpText(const MetricRegistry& registry) {
  std::ostringstream os;
  for (const MetricRegistry::Entry& e : registry.Entries()) {
    if (e.counter != nullptr) {
      os << e.name << " " << e.counter->Value() << "\n";
    } else if (e.gauge != nullptr) {
      if (e.gauge->is_double()) {
        os << e.name << " " << FmtDouble(e.gauge->DoubleValue()) << "\n";
      } else {
        os << e.name << " " << e.gauge->Value() << "\n";
      }
    } else {
      const Histogram::Snapshot s = e.histogram->Snap();
      os << e.name << " total=" << s.total << " p50=" << FmtDouble(s.Percentile(50))
         << " p90=" << FmtDouble(s.Percentile(90)) << " p99=" << FmtDouble(s.Percentile(99))
         << "\n";
    }
  }
  return os.str();
}

std::string DumpJson(const MetricRegistry& registry) {
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const MetricRegistry::Entry& e : registry.Entries()) {
    if (e.counter != nullptr) {
      counters << (first_c ? "" : ",") << "\n    \"" << e.name
               << "\": " << e.counter->Value();
      first_c = false;
    } else if (e.gauge != nullptr) {
      gauges << (first_g ? "" : ",") << "\n    \"" << e.name << "\": ";
      if (e.gauge->is_double()) {
        gauges << FmtDouble(e.gauge->DoubleValue());
      } else {
        gauges << e.gauge->Value();
      }
      first_g = false;
    } else {
      const Histogram::Snapshot s = e.histogram->Snap();
      histograms << (first_h ? "" : ",") << "\n    \"" << e.name << "\": {\"total\": "
                 << s.total << ", \"p50\": " << FmtDouble(s.Percentile(50))
                 << ", \"p90\": " << FmtDouble(s.Percentile(90))
                 << ", \"p99\": " << FmtDouble(s.Percentile(99)) << ", \"buckets\": [";
      bool first_b = true;
      for (size_t b = 0; b < Histogram::kBuckets; b++) {
        if (s.counts[b] == 0) {
          continue;
        }
        histograms << (first_b ? "" : ", ") << "[" << Histogram::BucketLow(b) << ", "
                   << s.counts[b] << "]";
        first_b = false;
      }
      histograms << "]}";
      first_h = false;
    }
  }
  std::ostringstream os;
  os << "{\n  \"counters\": {" << counters.str() << (first_c ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {" << gauges.str() << (first_g ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {" << histograms.str() << (first_h ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace telemetry
}  // namespace nyx
