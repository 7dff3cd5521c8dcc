// Allocation gate: a steady-state exec allocates next to nothing on the
// host. Nyx-Net serves packets straight from the input and resets host
// state without a codec pass (paper §3.3, §4.1-4.2), so a cheap target's
// exec should cost little more than the target's own work; a heap
// allocation per packet, per reply or per queued connection is exactly the
// harness overhead that bounds throughput on network servers.
//
// This binary replaces the global operator new/delete with counting
// versions and runs the five protocol targets of the wall-clock benchmark
// under `none` and under `balanced` with fault injection. A case's
// steady-state figure is the difference between a 4,000-exec and a
// 2,000-exec campaign on the same seed, divided by 2,000: construction,
// boot, the seed dry runs and the first schedules cancel out. Campaigns are
// deterministic per seed, so the figure is too, and machine speed cannot
// make the gate flaky.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <ostream>
#include <string>

#include "src/common/check.h"
#include "src/fuzz/fuzzer.h"
#include "src/targets/registry.h"

namespace {

NYX_RAW_METRIC_OK("counts this test binary's operator new calls; not a campaign metric");
std::atomic<uint64_t> g_news{0};

}  // namespace

// GCC pairs the inlined malloc/free across these definitions and warns;
// both halves are replaced together, so the pairing is right.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace nyx {
namespace {

constexpr uint64_t kShortExecs = 2000;
constexpr uint64_t kLongExecs = 4000;
constexpr double kMaxAllocsPerExec = 10.0;
constexpr uint64_t kSeed = 1;

struct AllocCase {
  const char* target;
  bool incremental;  // `balanced` with fault injection; else `none`
};

void PrintTo(const AllocCase& c, std::ostream* os) {
  *os << c.target << (c.incremental ? " balanced+faults" : " none");
}

// operator new calls from constructing a fuzzer through the end of an
// `execs`-exec campaign.
uint64_t CampaignAllocs(const AllocCase& c, uint64_t execs) {
  const std::optional<TargetRegistration> reg = FindTarget(c.target);
  NYX_CHECK(reg.has_value()) << c.target;
  const Spec spec = reg->make_spec();
  std::vector<Program> seeds = reg->make_seeds(spec);
  EngineConfig engine_cfg;
  engine_cfg.vm.mem_pages = 1024;
  engine_cfg.seed = kSeed;
  engine_cfg.audit = false;
  FuzzerConfig fuzz_cfg;
  fuzz_cfg.policy = c.incremental ? PolicyMode::kBalanced : PolicyMode::kNone;
  fuzz_cfg.fault_injection = c.incremental;
  fuzz_cfg.seed = kSeed;
  CampaignLimits limits;
  limits.vtime_seconds = std::numeric_limits<double>::infinity();
  limits.max_execs = execs;
  limits.wall_seconds = 600;

  const uint64_t before = g_news.load(std::memory_order_relaxed);
  NyxFuzzer fuzzer(engine_cfg, reg->factory, spec, fuzz_cfg);
  for (Program& seed : seeds) {
    fuzzer.AddSeed(std::move(seed));
  }
  const CampaignResult r = fuzzer.Run(limits);
  const uint64_t allocs = g_news.load(std::memory_order_relaxed) - before;
  // A campaign cut short by the wall-clock valve would not be the same
  // prefix of the exec stream in both runs.
  EXPECT_EQ(r.execs, execs) << c.target;
  EXPECT_FALSE(r.wall_capped) << c.target;
  return allocs;
}

class AllocTest : public ::testing::TestWithParam<AllocCase> {};

TEST_P(AllocTest, SteadyStateExecAllocatesAtMostTen) {
#ifndef NDEBUG
  GTEST_SKIP() << "the mutator's spec::Verify post-condition allocates on every mutation in "
                  "builds without NDEBUG";
#endif
  const AllocCase& c = GetParam();
  const uint64_t short_run = CampaignAllocs(c, kShortExecs);
  const uint64_t long_run = CampaignAllocs(c, kLongExecs);
  ASSERT_GE(long_run, short_run);
  const double per_exec =
      static_cast<double>(long_run - short_run) / static_cast<double>(kLongExecs - kShortExecs);
  printf("%s: %.2f allocations per exec\n", ::testing::PrintToString(c).c_str(), per_exec);
  EXPECT_LE(per_exec, kMaxAllocsPerExec);
}

INSTANTIATE_TEST_SUITE_P(
    ProtoTargets, AllocTest,
    ::testing::Values(AllocCase{"lightftp", false}, AllocCase{"kamailio", false},
                      AllocCase{"dnsmasq", false}, AllocCase{"openssl", false},
                      AllocCase{"dcmtk", false}, AllocCase{"lightftp", true},
                      AllocCase{"kamailio", true}, AllocCase{"dnsmasq", true},
                      AllocCase{"openssl", true}, AllocCase{"dcmtk", true}),
    [](const ::testing::TestParamInfo<AllocCase>& info) {
      return std::string(info.param.target) + (info.param.incremental ? "_balanced" : "_none");
    });

}  // namespace
}  // namespace nyx
