// Tests for the pluggable dirty-tracking backends (src/vm/dirty_backend.h):
// mode-name parsing, availability probing, graceful fallback, the
// open/seal restore protocol, and the backend-parity property — every
// available backend must observe the identical dirty set for the same
// write workload.

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/vm/guest_memory.h"

namespace nyx {
namespace {

// Backends worth head-to-head testing (software only sees explicit
// accessors, so it cannot run the raw-pointer workloads below).
const TrackingMode kHardwareModes[] = {TrackingMode::kMprotect, TrackingMode::kUffd,
                                       TrackingMode::kSoftDirty};

// Skips the calling test when `mode` cannot run here. The message avoids
// kernel-feature spellings the lint layer reserves for the backend itself.
#define SKIP_IF_UNAVAILABLE(mode)                                                       \
  do {                                                                                  \
    if (!TrackingModeAvailable(mode)) {                                                 \
      GTEST_SKIP() << TrackingModeName(mode) << " backend unavailable on this kernel"; \
    }                                                                                   \
  } while (0)

TEST(TrackingModeTest, NameRoundTrip) {
  for (TrackingMode mode : {TrackingMode::kMprotect, TrackingMode::kSoftware,
                            TrackingMode::kUffd, TrackingMode::kSoftDirty}) {
    EXPECT_EQ(TrackingModeFromName(TrackingModeName(mode), TrackingMode::kSoftware), mode);
  }
}

TEST(TrackingModeTest, UnknownOrEmptyNameFallsBackToDefault) {
  EXPECT_EQ(TrackingModeFromName("", TrackingMode::kMprotect), TrackingMode::kMprotect);
  EXPECT_EQ(TrackingModeFromName("hypercall", TrackingMode::kSoftDirty),
            TrackingMode::kSoftDirty);
}

TEST(TrackingModeTest, BaselineModesAlwaysAvailable) {
  EXPECT_TRUE(TrackingModeAvailable(TrackingMode::kMprotect));
  EXPECT_TRUE(TrackingModeAvailable(TrackingMode::kSoftware));
}

TEST(TrackingModeDeathTest, SoftwareFromEnvDiesNamingTheKnob) {
  // Software tracking never sees a target's direct stores, so a campaign
  // under it must not start. The knob is set in the death-test child only.
  EXPECT_DEATH(
      {
        setenv("NYX_TRACKER", "software", 1);
        TrackingModeFromEnv(TrackingMode::kMprotect);
      },
      "NYX_TRACKER=software");
}

TEST(DirtyBackendTest, RingCapacityConfigurableAndExported) {
  GuestMemory mem(64, TrackingMode::kMprotect, 16);
  EXPECT_EQ(mem.tracker().ring_capacity(), 16u);
  EXPECT_EQ(telemetry::MetricRegistry::Global().RegisterGauge("vm.dirty_ring_capacity")->Value(),
            16u);
  mem.ArmTracking();
  for (uint32_t p = 0; p < 32; p++) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = 1;
  }
  mem.SyncDirty();
  EXPECT_EQ(mem.tracker().ring_exits(), 2u);
}

TEST(DirtyBackendTest, FallbackToMprotectWhenUnavailable) {
  bool exercised = false;
  for (TrackingMode mode : {TrackingMode::kUffd, TrackingMode::kSoftDirty}) {
    if (TrackingModeAvailable(mode)) {
      continue;
    }
    exercised = true;
    GuestMemory mem(8, mode);
    EXPECT_EQ(mem.requested_mode(), mode);
    EXPECT_EQ(mem.mode(), TrackingMode::kMprotect);
    // The fallback still tracks.
    mem.ArmTracking();
    mem.base()[0] = 1;
    mem.SyncDirty();
    EXPECT_TRUE(mem.tracker().IsDirty(0));
  }
  if (!exercised) {
    GTEST_SKIP() << "every optional backend is available here; fallback path not reachable";
  }
}

TEST(DirtyBackendTest, SoftDirtyClaimIsExclusive) {
  SKIP_IF_UNAVAILABLE(TrackingMode::kSoftDirty);
  // clear_refs resets soft-dirty bits process-wide, so only one region may
  // own the backend; a second request falls back.
  GuestMemory first(8, TrackingMode::kSoftDirty);
  ASSERT_EQ(first.mode(), TrackingMode::kSoftDirty);
  GuestMemory second(8, TrackingMode::kSoftDirty);
  EXPECT_EQ(second.mode(), TrackingMode::kMprotect);
}

// Per-backend behavioural suite, one instantiation per available mode.
class BackendModeTest : public ::testing::TestWithParam<TrackingMode> {};

TEST_P(BackendModeTest, WritesLandInTracker) {
  SKIP_IF_UNAVAILABLE(GetParam());
  GuestMemory mem(32, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
  mem.ArmTracking();
  mem.base()[0] = 1;
  mem.base()[5 * kPageSize + 123] = 2;
  mem.SyncDirty();
  EXPECT_TRUE(mem.tracker().IsDirty(0));
  EXPECT_TRUE(mem.tracker().IsDirty(5));
  EXPECT_FALSE(mem.tracker().IsDirty(1));
  EXPECT_EQ(mem.base()[5 * kPageSize + 123], 2);
}

TEST_P(BackendModeTest, OpenForRestoreDoesNotDirty) {
  SKIP_IF_UNAVAILABLE(GetParam());
  GuestMemory mem(16, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
  mem.ArmTracking();
  mem.base()[2 * kPageSize] = 7;  // page 2 dirty
  mem.SyncDirty();
  const uint32_t pages[] = {2, 9};
  mem.OpenForRestore(pages, 2);  // page 9 opened clean, page 2 skipped (dirty)
  mem.base()[9 * kPageSize] = 0;
  mem.base()[2 * kPageSize] = 0;
  mem.SealAfterRestore();
  // The restore writes above never polluted the log...
  mem.SyncDirty();
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  // ...and both pages are re-armed: new writes are tracked again.
  mem.base()[9 * kPageSize] = 1;
  mem.base()[2 * kPageSize] = 1;
  mem.SyncDirty();
  EXPECT_TRUE(mem.tracker().IsDirty(9));
  EXPECT_TRUE(mem.tracker().IsDirty(2));
}

TEST_P(BackendModeTest, ReArmAfterCaptureTracksAgain) {
  SKIP_IF_UNAVAILABLE(GetParam());
  GuestMemory mem(16, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
  mem.ArmTracking();
  mem.base()[3 * kPageSize] = 1;
  mem.SyncDirty();
  ASSERT_TRUE(mem.tracker().IsDirty(3));
  mem.ReArmDirtyPages();
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  mem.base()[3 * kPageSize] = 2;
  mem.SyncDirty();
  EXPECT_TRUE(mem.tracker().IsDirty(3));
  EXPECT_EQ(mem.tracker().stack_size(), 1u);
}

// Ends one epoch after dirtying `pages`: odd epochs re-arm after a capture,
// even ones seal after a restore, so both paths count towards pinning.
void DirtyEpoch(GuestMemory& mem, std::initializer_list<uint32_t> pages, int epoch) {
  for (uint32_t p : pages) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = static_cast<uint8_t>(epoch + 1);
  }
  mem.SyncDirty();
  if (epoch % 2 != 0) {
    mem.ReArmDirtyPages();
  } else {
    mem.SealAfterRestore();
  }
}

TEST_P(BackendModeTest, HotPagePinsOpenUntilArmTracking) {
  SKIP_IF_UNAVAILABLE(GetParam());
  const bool fault_driven = GetParam() != TrackingMode::kSoftDirty;
  GuestMemory mem(16, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
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
  // and ReArm. Soft-dirty resets its log wholesale at each re-arm, whatever
  // the list, so only the fault-driven backends hold protect calls flat.
  const uint64_t marks = mem.tracker().total_marks();
  const uint64_t calls = mem.protect_calls();
  for (int e = 0; e < 4; e++) {
    mem.base()[4 * kPageSize + 1] = static_cast<uint8_t>(0x40 + e);
    mem.SyncDirty();
    EXPECT_EQ(mem.tracker().total_marks(), marks);
    if (fault_driven) {
      EXPECT_EQ(mem.protect_calls(), calls);
    }
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
  if (fault_driven) {
    EXPECT_EQ(mem.protect_calls(), calls);
  }

  // A new root unpins it and protects it again: the next write is a mark,
  // and pinning starts over.
  mem.ArmTracking();
  EXPECT_EQ(mem.pinned_pages(), 0u);
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  mem.base()[4 * kPageSize] = 1;
  mem.SyncDirty();
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

TEST_P(BackendModeTest, AtMostMaxPinnedPagesPin) {
  SKIP_IF_UNAVAILABLE(GetParam());
  constexpr size_t kExtra = 5;
  constexpr size_t kPages = GuestMemory::kMaxPinnedPages + kExtra;
  GuestMemory mem(kPages, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
  mem.ArmTracking();
  for (int e = 0; e < 2 * GuestMemory::kPinAfter; e++) {
    for (uint32_t p = 0; p < kPages; p++) {
      mem.base()[static_cast<size_t>(p) * kPageSize] = static_cast<uint8_t>(e);
    }
    mem.SyncDirty();
    mem.SealAfterRestore();
  }
  EXPECT_EQ(mem.pinned_pages(), GuestMemory::kMaxPinnedPages);
  EXPECT_EQ(mem.tracker().stack_size(), GuestMemory::kMaxPinnedPages);
  // The pages past the cap keep trapping every epoch.
  const uint64_t marks = mem.tracker().total_marks();
  for (uint32_t p = 0; p < kPages; p++) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = 0xff;
  }
  mem.SyncDirty();
  EXPECT_EQ(mem.tracker().total_marks(), marks + kExtra);
  EXPECT_EQ(mem.tracker().stack_size(), kPages);
}

TEST_P(BackendModeTest, PinSetRestartsEveryWindow) {
  SKIP_IF_UNAVAILABLE(GetParam());
  GuestMemory mem(16, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
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

TEST_P(BackendModeTest, RarelyWrittenPageNeverPins) {
  // One write per 150 epochs is below the one-per-128 rate pinning asks
  // for, so across several windows every write keeps trapping, however
  // many writes there are in total.
  SKIP_IF_UNAVAILABLE(GetParam());
  GuestMemory mem(16, GetParam());
  ASSERT_EQ(mem.mode(), GetParam());
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

INSTANTIATE_TEST_SUITE_P(AllModes, BackendModeTest, ::testing::ValuesIn(kHardwareModes),
                         [](const ::testing::TestParamInfo<TrackingMode>& info) {
                           return std::string(TrackingModeName(info.param));
                         });

// The parity property: the same random write workload, replayed through
// every available backend, must produce the identical dirty set.
class BackendParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendParityTest, AllBackendsAgreeOnDirtySet) {
  constexpr size_t kPages = 128;
  std::set<uint32_t> expected;
  std::vector<std::set<uint32_t>> observed;
  std::vector<TrackingMode> ran;
  for (TrackingMode mode : kHardwareModes) {
    if (!TrackingModeAvailable(mode)) {
      continue;
    }
    GuestMemory mem(kPages, mode);
    ASSERT_EQ(mem.mode(), mode);
    mem.ArmTracking();
    Rng rng(GetParam());  // identical workload per backend
    std::set<uint32_t> writes;
    for (int i = 0; i < 400; i++) {
      const uint64_t off = rng.Below(mem.size_bytes());
      mem.base()[off] = rng.NextByte();
      writes.insert(PageOf(off));
    }
    mem.SyncDirty();
    std::set<uint32_t> dirty(mem.tracker().stack_data(),
                             mem.tracker().stack_data() + mem.tracker().stack_size());
    EXPECT_EQ(dirty, writes) << TrackingModeName(mode) << " missed or invented dirt";
    expected = writes;
    observed.push_back(std::move(dirty));
    ran.push_back(mode);
  }
  ASSERT_GE(ran.size(), 1u);  // mprotect always runs
  for (size_t i = 0; i < observed.size(); i++) {
    EXPECT_EQ(observed[i], expected) << TrackingModeName(ran[i]) << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendParityTest, ::testing::Values(1, 2, 3, 7, 9001));

}  // namespace
}  // namespace nyx
