// Tests for the capability-annotated sync layer (src/common/sync.h): mutual
// exclusion and the ThreadChecker affinity guard.
//
// The static analysis is exercised by the CI clang job: the whole tree
// builds with -Wthread-safety -Werror=thread-safety, and this file doubles
// as the negative-compile proof (see the #ifdef block below).

#include "src/common/sync.h"

#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace nyx {
namespace {

#ifdef NYX_SYNC_TEST_NEGATIVE_COMPILE
// Negative-compile check: reading a NYX_GUARDED_BY field with no lock held
// must be rejected by clang -Werror=thread-safety. The ci.yml clang job
// compiles this file with -DNYX_SYNC_TEST_NEGATIVE_COMPILE and asserts the
// compiler FAILS; the block is never part of a normal build.
struct NegativeCompileGuarded {
  Mutex mu;
  int value NYX_GUARDED_BY(mu) = 0;
};
int UnannotatedAccess(NegativeCompileGuarded& g) { return g.value; }
#endif

struct GuardedCounter {
  Mutex mu;
  uint64_t value NYX_GUARDED_BY(mu) = 0;
};

TEST(MutexTest, MutualExclusionAcrossThreads) {
  GuardedCounter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25000; i++) {
        MutexLock lock(c.mu);
        c.value++;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  MutexLock lock(c.mu);
  EXPECT_EQ(c.value, 100000u);
}

TEST(ThreadCheckerTest, AttachesToFirstCallerAndDetaches) {
  ThreadChecker checker;
  EXPECT_TRUE(checker.CalledOnValidThread());
  EXPECT_TRUE(checker.CalledOnValidThread());

  bool from_other = true;
  std::thread other([&] { from_other = checker.CalledOnValidThread(); });
  other.join();
  EXPECT_FALSE(from_other);

  checker.Detach();
  std::thread adopted([&] { from_other = checker.CalledOnValidThread(); });
  adopted.join();
  EXPECT_TRUE(from_other);
  // Ownership moved: the original thread no longer qualifies.
  EXPECT_FALSE(checker.CalledOnValidThread());
}

}  // namespace
}  // namespace nyx
