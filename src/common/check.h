// Contract-checking macros for invariants the code cannot express in types.
//
// Two severity levels:
//   NYX_CHECK / NYX_CHECK_EQ / ... / NYX_UNREACHABLE  — always compiled in;
//     a failure logs file:line plus the failed expression and aborts. Use for
//     invariants whose violation means memory corruption or snapshot-state
//     divergence (continuing would silently corrupt the campaign).
//   NYX_DCHECK / NYX_DCHECK_EQ / ...  — same, but compiled out under NDEBUG.
//     Use on hot paths (per-exec, per-page) where the release build cannot
//     afford the branch.
//   NYX_EXPECT(cond)  — soft contract: evaluates to the condition, and when
//     false bumps a global failure counter and emits a debug log instead of
//     aborting. Use to make defensive early-returns loud:
//       if (!NYX_EXPECT(ValidConn(conn))) return false;
//     The counters are surfaced in campaign stats (workdir stats.txt and the
//     CLI) so corrupted inputs show up in every run summary.
//
// Streaming extra context is supported on the fatal macros:
//   NYX_CHECK(off <= size) << "device state truncated at " << off;

#ifndef SRC_COMMON_CHECK_H_
#define SRC_COMMON_CHECK_H_

#include <cstdint>
#include <sstream>
#include <string>

// Marker for the nyx_lint `raw-metrics` rule: a static-duration integer
// atomic that deliberately bypasses the telemetry MetricRegistry
// (src/common/telemetry.h). Legitimate uses are bootstrap-ordering hazards
// (the registry itself, or code the registry depends on) and lazily-resolved
// configuration flags that are not counters. Everything else should be a
// registered Counter so it shows up in metrics.json.
#define NYX_RAW_METRIC_OK(reason)

namespace nyx {

// Tallies of contract failures. Hard failures abort, so the counter is only
// ever observable from the failure log line; soft failures accumulate across
// a campaign.
struct ContractCounters {
  uint64_t soft_failures = 0;
  uint64_t hard_failures = 0;
};
// Process-wide aggregate across all threads (workdir stats, CLI summaries).
ContractCounters GetContractCounters();
// Tally for the calling thread only. Campaigns run whole on one worker
// thread (harness/parallel.h), so the delta of this counter across a
// campaign is exact and deterministic no matter what other workers do.
ContractCounters GetThreadContractCounters();
void ResetContractCounters();

namespace internal {

// Counts a soft-contract failure and (at debug log level) reports it.
void NoteSoftFailure(const char* file, int line, const char* expr);

// Accumulates streamed context and aborts in its destructor, so the macro
// expansion can be used as a statement with trailing `<< ...`.
class ContractFailure {
 public:
  ContractFailure(const char* file, int line, const char* kind, const char* expr);
  // Takes ownership of a heap-allocated detail string (from the CHECK_OP
  // helpers); frees it after appending.
  ContractFailure(const char* file, int line, const char* kind, std::string* detail);
  [[noreturn]] ~ContractFailure();

  template <typename T>
  ContractFailure& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

// Returns nullptr when the predicate holds, else a heap-allocated message
// with both operand values. Operands are evaluated exactly once.
template <typename A, typename B, typename Pred>
std::string* CheckOpFailure(const A& a, const B& b, Pred pred, const char* expr) {
  if (pred(a, b)) {
    return nullptr;
  }
  std::ostringstream os;
  os << expr << " (with " << +a << " vs " << +b << ")";
  return new std::string(os.str());
}

}  // namespace internal
}  // namespace nyx

#define NYX_CHECK(cond)                                                          \
  switch (0)                                                                     \
  case 0:                                                                        \
  default:                                                                       \
    if (__builtin_expect(static_cast<bool>(cond), 1))                            \
      ;                                                                          \
    else                                                                         \
      ::nyx::internal::ContractFailure(__FILE__, __LINE__, "NYX_CHECK", #cond)

#define NYX_CHECK_OP_IMPL(kind, a, b, op)                                          \
  switch (0)                                                                       \
  case 0:                                                                          \
  default:                                                                         \
    if (std::string* nyx_check_detail = ::nyx::internal::CheckOpFailure(           \
            (a), (b), [](const auto& x, const auto& y) { return x op y; },         \
            #a " " #op " " #b);                                                    \
        nyx_check_detail == nullptr)                                               \
      ;                                                                            \
    else                                                                           \
      ::nyx::internal::ContractFailure(__FILE__, __LINE__, kind, nyx_check_detail)

#define NYX_CHECK_EQ(a, b) NYX_CHECK_OP_IMPL("NYX_CHECK_EQ", a, b, ==)
#define NYX_CHECK_NE(a, b) NYX_CHECK_OP_IMPL("NYX_CHECK_NE", a, b, !=)
#define NYX_CHECK_LT(a, b) NYX_CHECK_OP_IMPL("NYX_CHECK_LT", a, b, <)
#define NYX_CHECK_LE(a, b) NYX_CHECK_OP_IMPL("NYX_CHECK_LE", a, b, <=)
#define NYX_CHECK_GT(a, b) NYX_CHECK_OP_IMPL("NYX_CHECK_GT", a, b, >)
#define NYX_CHECK_GE(a, b) NYX_CHECK_OP_IMPL("NYX_CHECK_GE", a, b, >=)

#define NYX_UNREACHABLE() \
  ::nyx::internal::ContractFailure(__FILE__, __LINE__, "NYX_UNREACHABLE", "reached")

// Soft contract: an expression, usable inside conditions. False bumps the
// soft-failure counter (see GetContractCounters) but execution continues.
#define NYX_EXPECT(cond)                                 \
  (__builtin_expect(static_cast<bool>(cond), 1)          \
       ? true                                            \
       : (::nyx::internal::NoteSoftFailure(__FILE__, __LINE__, #cond), false))

#ifdef NDEBUG
// Compiled out, but the condition must still parse (and odr-used names stay
// referenced) so debug-only contracts cannot rot.
#define NYX_DCHECK(cond) NYX_CHECK(true || static_cast<bool>(cond))
#define NYX_DCHECK_EQ(a, b) NYX_DCHECK((a) == (b))
#define NYX_DCHECK_NE(a, b) NYX_DCHECK((a) != (b))
#define NYX_DCHECK_LT(a, b) NYX_DCHECK((a) < (b))
#define NYX_DCHECK_LE(a, b) NYX_DCHECK((a) <= (b))
#define NYX_DCHECK_GT(a, b) NYX_DCHECK((a) > (b))
#define NYX_DCHECK_GE(a, b) NYX_DCHECK((a) >= (b))
#else
#define NYX_DCHECK(cond) NYX_CHECK(cond)
#define NYX_DCHECK_EQ(a, b) NYX_CHECK_EQ(a, b)
#define NYX_DCHECK_NE(a, b) NYX_CHECK_NE(a, b)
#define NYX_DCHECK_LT(a, b) NYX_CHECK_LT(a, b)
#define NYX_DCHECK_LE(a, b) NYX_CHECK_LE(a, b)
#define NYX_DCHECK_GT(a, b) NYX_CHECK_GT(a, b)
#define NYX_DCHECK_GE(a, b) NYX_CHECK_GE(a, b)
#endif

#endif  // SRC_COMMON_CHECK_H_
