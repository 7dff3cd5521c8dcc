// Tests for the dirty-page tracker: bitmap + stack consistency, idempotent
// marking, ring-exit accounting and the O(#dirty) clear.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/rng.h"
#include "src/vm/dirty_tracker.h"

namespace nyx {
namespace {

TEST(DirtyTrackerTest, StartsClean) {
  DirtyTracker t(64);
  EXPECT_EQ(t.stack_size(), 0u);
  for (uint32_t p = 0; p < 64; p++) {
    EXPECT_FALSE(t.IsDirty(p));
  }
}

TEST(DirtyTrackerTest, MarkSetsBitmapAndStack) {
  DirtyTracker t(64);
  t.MarkDirty(5);
  t.MarkDirty(17);
  EXPECT_TRUE(t.IsDirty(5));
  EXPECT_TRUE(t.IsDirty(17));
  EXPECT_FALSE(t.IsDirty(6));
  ASSERT_EQ(t.stack_size(), 2u);
  EXPECT_EQ(t.stack_data()[0], 5u);
  EXPECT_EQ(t.stack_data()[1], 17u);
}

TEST(DirtyTrackerTest, MarkIsIdempotent) {
  DirtyTracker t(64);
  for (int i = 0; i < 10; i++) {
    t.MarkDirty(3);
  }
  EXPECT_EQ(t.stack_size(), 1u);
  EXPECT_EQ(t.total_marks(), 1u);
}

TEST(DirtyTrackerTest, OutOfRangeIgnored) {
  DirtyTracker t(8);
  t.MarkDirty(8);
  t.MarkDirty(1000);
  EXPECT_EQ(t.stack_size(), 0u);
}

TEST(DirtyTrackerTest, ClearOnlyTouchesStackEntries) {
  DirtyTracker t(1024);
  t.MarkDirty(1);
  t.MarkDirty(1000);
  t.Clear();
  EXPECT_EQ(t.stack_size(), 0u);
  EXPECT_FALSE(t.IsDirty(1));
  EXPECT_FALSE(t.IsDirty(1000));
  // Marks still work after a clear.
  t.MarkDirty(1);
  EXPECT_TRUE(t.IsDirty(1));
  EXPECT_EQ(t.stack_size(), 1u);
}

TEST(DirtyTrackerTest, RingExitsEveryCapacityMarks) {
  DirtyTracker t(4 * kDirtyRingCapacity);
  for (uint32_t p = 0; p < kDirtyRingCapacity - 1; p++) {
    t.MarkDirty(p);
  }
  EXPECT_EQ(t.ring_exits(), 0u);
  t.MarkDirty(kDirtyRingCapacity - 1);
  EXPECT_EQ(t.ring_exits(), 1u);
  for (uint32_t p = 0; p < 2 * kDirtyRingCapacity; p++) {
    t.MarkDirty(kDirtyRingCapacity + p);
  }
  EXPECT_EQ(t.ring_exits(), 3u);
}

TEST(DirtyTrackerTest, BitmapWalkMatchesStack) {
  DirtyTracker t(4096);
  Rng rng(1234);
  std::set<uint32_t> expected;
  for (int i = 0; i < 500; i++) {
    uint32_t p = static_cast<uint32_t>(rng.Below(4096));
    t.MarkDirty(p);
    expected.insert(p);
  }
  std::set<uint32_t> via_walk;
  t.ForEachDirtyByBitmapWalk([&](uint32_t p) { via_walk.insert(p); });
  std::set<uint32_t> via_stack(t.stack_data(), t.stack_data() + t.stack_size());
  EXPECT_EQ(via_walk, expected);
  EXPECT_EQ(via_stack, expected);
}

TEST(DirtyTrackerTest, DirtySpanViewsStack) {
  DirtyTracker t(16);
  t.MarkDirty(4);
  t.MarkDirty(2);
  std::span<const uint32_t> pages = t.dirty();
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0], 4u);
  EXPECT_EQ(pages[1], 2u);
  // Zero-copy: the span aliases the stack storage itself.
  EXPECT_EQ(pages.data(), t.stack_data());
  t.Clear();
  EXPECT_TRUE(t.dirty().empty());
}

TEST(DirtyTrackerTest, PinnedPagesSitAtTheBottomAndSurviveClear) {
  DirtyTracker t(16);
  t.MarkDirty(4);
  t.MarkDirty(2);
  t.MarkDirty(9);
  t.Pin(2);  // page 9 swaps to the bottom
  ASSERT_EQ(t.pinned_count(), 1u);
  EXPECT_EQ(t.dirty()[0], 9u);
  ASSERT_EQ(t.unpinned().size(), 2u);
  EXPECT_EQ(t.unpinned()[0], 2u);
  EXPECT_EQ(t.unpinned()[1], 4u);

  t.Clear();
  ASSERT_EQ(t.stack_size(), 1u);
  EXPECT_EQ(t.dirty()[0], 9u);
  EXPECT_TRUE(t.IsDirty(9));
  EXPECT_FALSE(t.IsDirty(4));
  EXPECT_TRUE(t.unpinned().empty());
  // A pinned page is never marked again.
  const uint64_t marks = t.total_marks();
  t.MarkDirty(9);
  EXPECT_EQ(t.total_marks(), marks);

  t.UnpinAll();
  EXPECT_EQ(t.pinned_count(), 0u);
  EXPECT_TRUE(t.IsDirty(9));  // still dirty until the next clear
  t.Clear();
  EXPECT_EQ(t.stack_size(), 0u);
  EXPECT_FALSE(t.IsDirty(9));
}

// Property: after any interleaving of marks and clears, bitmap and stack
// agree exactly.
class DirtyTrackerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirtyTrackerPropertyTest, BitmapAndStackAlwaysAgree) {
  Rng rng(GetParam());
  DirtyTracker t(512);
  std::set<uint32_t> model;
  for (int step = 0; step < 2000; step++) {
    if (rng.Chance(1, 50)) {
      t.Clear();
      model.clear();
    } else {
      uint32_t p = static_cast<uint32_t>(rng.Below(512));
      t.MarkDirty(p);
      model.insert(p);
    }
    ASSERT_EQ(t.stack_size(), model.size());
  }
  std::set<uint32_t> stack_set(t.stack_data(), t.stack_data() + t.stack_size());
  EXPECT_EQ(stack_set, model);
  for (uint32_t p = 0; p < 512; p++) {
    EXPECT_EQ(t.IsDirty(p), model.count(p) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirtyTrackerPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 1337, 42424242));

}  // namespace
}  // namespace nyx
