// Tests for the centralized environment accessors (src/common/env.h): the
// typed parsing rules every knob shares.

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/common/env.h"

namespace nyx {
namespace {

// Scoped setter so a failing assertion cannot leak a knob into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

constexpr char kVar[] = "NYX_ENV_TEST_KNOB";

TEST(EnvTest, FlagSemantics) {
  unsetenv(kVar);
  EXPECT_FALSE(env::Flag(kVar));
  {
    ScopedEnv e(kVar, "");
    EXPECT_FALSE(env::Flag(kVar));  // empty counts as unset
  }
  {
    ScopedEnv e(kVar, "0");
    EXPECT_FALSE(env::Flag(kVar));
  }
  {
    ScopedEnv e(kVar, "1");
    EXPECT_TRUE(env::Flag(kVar));
  }
  {
    ScopedEnv e(kVar, "yes");
    EXPECT_TRUE(env::Flag(kVar));
  }
}

TEST(EnvTest, SizeOrParsesPositiveIntegers) {
  unsetenv(kVar);
  EXPECT_EQ(env::SizeOr(kVar, 7), 7u);
  {
    ScopedEnv e(kVar, "42");
    EXPECT_EQ(env::SizeOr(kVar, 7), 42u);
  }
  {
    ScopedEnv e(kVar, "0");  // not positive
    EXPECT_EQ(env::SizeOr(kVar, 7), 7u);
  }
  {
    ScopedEnv e(kVar, "-3");
    EXPECT_EQ(env::SizeOr(kVar, 7), 7u);
  }
  {
    ScopedEnv e(kVar, "banana");
    EXPECT_EQ(env::SizeOr(kVar, 7), 7u);
  }
}

TEST(EnvTest, DoubleOrParsesPositiveDoubles) {
  unsetenv(kVar);
  EXPECT_DOUBLE_EQ(env::DoubleOr(kVar, 1.5), 1.5);
  {
    ScopedEnv e(kVar, "2.25");
    EXPECT_DOUBLE_EQ(env::DoubleOr(kVar, 1.5), 2.25);
  }
  {
    ScopedEnv e(kVar, "0");
    EXPECT_DOUBLE_EQ(env::DoubleOr(kVar, 1.5), 1.5);
  }
  {
    ScopedEnv e(kVar, "nope");
    EXPECT_DOUBLE_EQ(env::DoubleOr(kVar, 1.5), 1.5);
  }
}

TEST(EnvTest, StringOrFallsBackWhenUnsetOrEmpty) {
  unsetenv(kVar);
  EXPECT_EQ(env::StringOr(kVar, "def"), "def");
  {
    ScopedEnv e(kVar, "");
    EXPECT_EQ(env::StringOr(kVar, "def"), "def");
  }
  {
    ScopedEnv e(kVar, "value");
    EXPECT_EQ(env::StringOr(kVar, "def"), "value");
  }
}

TEST(EnvTest, NamedAccessorsReadTheirKnobs) {
  {
    ScopedEnv e("NYX_RUNS", "3");
    EXPECT_EQ(env::Runs(1), 3u);
  }
  EXPECT_EQ(env::Runs(1), 1u);
  {
    ScopedEnv e("NYX_VTIME", "0.5");
    EXPECT_DOUBLE_EQ(env::Vtime(9.0), 0.5);
  }
  {
    ScopedEnv e("NYX_JOBS", "4");
    EXPECT_EQ(env::Jobs(1), 4u);
  }
  {
    ScopedEnv e("NYX_WALL", "12");
    EXPECT_DOUBLE_EQ(env::Wall(5.0), 12.0);
  }
  {
    ScopedEnv e("NYX_AUDIT", "1");
    EXPECT_TRUE(env::Audit());
  }
  EXPECT_FALSE(env::Audit());
}

}  // namespace
}  // namespace nyx
