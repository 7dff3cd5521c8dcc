// Tests for GuestMemory's dirty-tracking backend beyond the fault path:
// the open/seal restore protocol, the re-arm after a capture, dirty-ring
// exits counted on the fault path, and pinning of hot pages. The backend is
// mprotect (DESIGN.md §12); basic write tracking is in guest_memory_test.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

#include "src/vm/guest_memory.h"

namespace nyx {
namespace {

TEST(DirtyBackendTest, OpenForRestoreDoesNotDirty) {
  GuestMemory mem(16);
  mem.ArmTracking();
  mem.base()[2 * kPageSize] = 7;  // page 2 dirty
  const uint32_t pages[] = {2, 9};
  mem.OpenForRestore(pages, 2);  // page 9 opened clean, page 2 skipped (dirty)
  mem.base()[9 * kPageSize] = 0;
  mem.base()[2 * kPageSize] = 0;
  mem.SealAfterRestore();
  // The restore writes above never polluted the log...
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  // ...and both pages are re-armed: new writes are tracked again.
  mem.base()[9 * kPageSize] = 1;
  mem.base()[2 * kPageSize] = 1;
  EXPECT_TRUE(mem.tracker().IsDirty(9));
  EXPECT_TRUE(mem.tracker().IsDirty(2));
}

TEST(DirtyBackendTest, ReArmAfterCaptureTracksAgain) {
  GuestMemory mem(16);
  mem.ArmTracking();
  mem.base()[3 * kPageSize] = 1;
  ASSERT_TRUE(mem.tracker().IsDirty(3));
  mem.ReArmDirtyPages();
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  mem.base()[3 * kPageSize] = 2;
  EXPECT_TRUE(mem.tracker().IsDirty(3));
  EXPECT_EQ(mem.tracker().stack_size(), 1u);
}

TEST(DirtyBackendTest, RingExitsCountedOnFaultPath) {
  // Every kDirtyRingCapacity first writes fill the simulated dirty ring once.
  GuestMemory mem(2 * kDirtyRingCapacity + 1);
  mem.ArmTracking();
  for (uint32_t p = 0; p < kDirtyRingCapacity; p++) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = 1;
  }
  EXPECT_EQ(mem.tracker().ring_exits(), 1u);
  for (uint32_t p = 0; p <= kDirtyRingCapacity; p++) {
    mem.base()[(kDirtyRingCapacity + static_cast<size_t>(p)) * kPageSize] = 1;
  }
  EXPECT_EQ(mem.tracker().ring_exits(), 2u);
  // Writes to pages already dirty are not first writes and fill nothing.
  mem.base()[1] = 2;
  EXPECT_EQ(mem.tracker().ring_exits(), 2u);
}

// Ends one epoch after dirtying `pages`: odd epochs re-arm after a capture,
// even ones seal after a restore, so both paths count towards pinning.
void DirtyEpoch(GuestMemory& mem, std::initializer_list<uint32_t> pages, int epoch) {
  for (uint32_t p : pages) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = static_cast<uint8_t>(epoch + 1);
  }
  if (epoch % 2 != 0) {
    mem.ReArmDirtyPages();
  } else {
    mem.SealAfterRestore();
  }
}

TEST(DirtyBackendPinTest, HotPagePinsOpenUntilArmTracking) {
  GuestMemory mem(16);
  mem.ArmTracking();
  for (int e = 0; e + 1 < GuestMemory::kPinAfter; e++) {
    DirtyEpoch(mem, {4, 7}, e);
    ASSERT_EQ(mem.pinned_pages(), 0u) << "epoch " << e;
    ASSERT_EQ(mem.tracker().stack_size(), 0u);
  }
  DirtyEpoch(mem, {4}, GuestMemory::kPinAfter);
  ASSERT_EQ(mem.pinned_pages(), 1u);
  // Pinned: dirty across the re-arm, page 7 (one epoch short) is not.
  ASSERT_EQ(mem.tracker().stack_size(), 1u);
  EXPECT_EQ(mem.tracker().dirty()[0], 4u);
  EXPECT_FALSE(mem.tracker().IsDirty(7));

  // Writable without marks or protection calls, and dirty across every Seal
  // and ReArm.
  const uint64_t marks = mem.tracker().total_marks();
  const uint64_t calls = mem.protect_calls();
  for (int e = 0; e < 4; e++) {
    mem.base()[4 * kPageSize + 1] = static_cast<uint8_t>(0x40 + e);
    EXPECT_EQ(mem.tracker().total_marks(), marks);
    EXPECT_EQ(mem.protect_calls(), calls);
    const uint32_t restore[] = {4};
    mem.OpenForRestore(restore, 1);  // dirty, so never opened
    if (e % 2 != 0) {
      mem.ReArmDirtyPages();
    } else {
      mem.SealAfterRestore();
    }
    EXPECT_TRUE(mem.tracker().IsDirty(4));
    EXPECT_EQ(mem.base()[4 * kPageSize + 1], 0x40 + e);
  }
  EXPECT_EQ(mem.protect_calls(), calls);

  // A new root unpins it and protects it again: the next write is a mark,
  // and pinning starts over.
  mem.ArmTracking();
  EXPECT_EQ(mem.pinned_pages(), 0u);
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  mem.base()[4 * kPageSize] = 1;
  EXPECT_TRUE(mem.tracker().IsDirty(4));
  EXPECT_EQ(mem.tracker().total_marks(), marks + 1);
  mem.ReArmDirtyPages();
  for (int e = 0; e + 2 < GuestMemory::kPinAfter; e++) {
    DirtyEpoch(mem, {4}, e);
  }
  EXPECT_EQ(mem.pinned_pages(), 0u);
  DirtyEpoch(mem, {4}, 0);
  EXPECT_EQ(mem.pinned_pages(), 1u);
}

TEST(DirtyBackendPinTest, AtMostMaxPinnedPagesPin) {
  constexpr size_t kExtra = 5;
  constexpr size_t kPages = GuestMemory::kMaxPinnedPages + kExtra;
  GuestMemory mem(kPages);
  mem.ArmTracking();
  for (int e = 0; e < 2 * GuestMemory::kPinAfter; e++) {
    for (uint32_t p = 0; p < kPages; p++) {
      mem.base()[static_cast<size_t>(p) * kPageSize] = static_cast<uint8_t>(e);
    }
    mem.SealAfterRestore();
  }
  EXPECT_EQ(mem.pinned_pages(), GuestMemory::kMaxPinnedPages);
  EXPECT_EQ(mem.tracker().stack_size(), GuestMemory::kMaxPinnedPages);
  // The pages past the cap keep trapping every epoch.
  const uint64_t marks = mem.tracker().total_marks();
  for (uint32_t p = 0; p < kPages; p++) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = 0xff;
  }
  EXPECT_EQ(mem.tracker().total_marks(), marks + kExtra);
  EXPECT_EQ(mem.tracker().stack_size(), kPages);
}

TEST(DirtyBackendPinTest, PinSetRestartsEveryWindow) {
  GuestMemory mem(16);
  mem.ArmTracking();
  int epoch = 0;  // epochs since ArmTracking
  auto end_epoch = [&](std::initializer_list<uint32_t> pages) { DirtyEpoch(mem, pages, epoch++); };

  // Window 1: page 4 is written every epoch and pins; page 9 is written in
  // kPinAfter - 1 epochs, one short.
  for (int e = 0; e + 1 < GuestMemory::kPinAfter; e++) {
    end_epoch({4, 9});
  }
  end_epoch({4});
  ASSERT_EQ(mem.pinned_pages(), 1u);
  while (epoch + 1 < static_cast<int>(GuestMemory::kPinWindow)) {
    end_epoch({4});
  }
  ASSERT_EQ(mem.pinned_pages(), 1u);
  // The window's last epoch unpins page 4 and protects it again.
  end_epoch({4});
  EXPECT_EQ(mem.pinned_pages(), 0u);
  EXPECT_EQ(mem.tracker().stack_size(), 0u);

  // Window 2: page 4, still hot, traps once and pins again at the end of
  // that epoch. Page 9's count restarted, so its eighth write does not pin.
  uint64_t marks = mem.tracker().total_marks();
  end_epoch({4, 9});
  EXPECT_EQ(mem.tracker().total_marks(), marks + 2);
  ASSERT_EQ(mem.pinned_pages(), 1u);
  EXPECT_EQ(mem.tracker().dirty()[0], 4u);
  EXPECT_FALSE(mem.tracker().IsDirty(9));

  // Page 4 goes cold. It stays pinned to the end of window 2 and, unwritten
  // in window 3, drops out: in window 4 one write traps and does not pin.
  while (epoch < 3 * static_cast<int>(GuestMemory::kPinWindow)) {
    end_epoch({});
  }
  EXPECT_EQ(mem.pinned_pages(), 0u);
  marks = mem.tracker().total_marks();
  end_epoch({4});
  EXPECT_EQ(mem.tracker().total_marks(), marks + 1);
  EXPECT_EQ(mem.pinned_pages(), 0u);
  EXPECT_FALSE(mem.tracker().IsDirty(4));
}

TEST(DirtyBackendPinTest, RarelyWrittenPageNeverPins) {
  // One write per 150 epochs is below the one-per-128 rate pinning asks
  // for, so across several windows every write keeps trapping, however
  // many writes there are in total.
  GuestMemory mem(16);
  mem.ArmTracking();
  uint64_t writes = 0;
  for (int e = 0; e < 4 * static_cast<int>(GuestMemory::kPinWindow); e++) {
    if (e % 150 == 0) {
      DirtyEpoch(mem, {9}, e);
      writes++;
    } else {
      DirtyEpoch(mem, {}, e);
    }
    ASSERT_EQ(mem.pinned_pages(), 0u) << "epoch " << e;
  }
  EXPECT_GT(writes, 2u * GuestMemory::kPinAfter);
  EXPECT_EQ(mem.tracker().total_marks(), writes);
}

}  // namespace
}  // namespace nyx
