// Integration tests for the Vm façade: whole-VM snapshot semantics across
// memory, devices, disk and the auxiliary blob, plus cost accounting.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

VmConfig SmallConfig() {
  VmConfig c;
  c.mem_pages = 64;
  c.disk_sectors = 64;
  return c;
}

TEST(VmTest, RootRestoreIsIdentity) {
  Vm vm(SmallConfig());
  vm.mem().base()[100] = 7;
  vm.TakeRootSnapshot();
  vm.mem().base()[100] = 99;
  vm.mem().base()[5 * kPageSize] = 1;
  vm.devices().regs(0)[0] = 0xab;
  vm.disk().WriteBytes(0, "dirty", 5);
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[100], 7);
  EXPECT_EQ(vm.mem().base()[5 * kPageSize], 0);
  EXPECT_EQ(vm.devices().regs(0)[0], 0);
  char buf[6] = {};
  vm.disk().ReadBytes(0, buf, 5);
  EXPECT_EQ(0, memcmp(buf, "\0\0\0\0\0", 5));
  EXPECT_EQ(vm.stats().root_restores, 1u);
}

TEST(VmTest, RepeatedRestoresStayClean) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  for (int i = 0; i < 20; i++) {
    vm.mem().base()[static_cast<size_t>(i) * kPageSize] = static_cast<uint8_t>(i + 1);
    vm.RestoreRoot();
  }
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(vm.mem().base()[static_cast<size_t>(i) * kPageSize], 0);
  }
}

TEST(VmTest, IncrementalRestoreKeepsPrefixState) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  // Prefix execution.
  vm.mem().base()[0] = 11;
  vm.disk().WriteBytes(0, "pfx", 3);
  vm.devices().regs(0)[1] = 0x55;
  vm.CreateIncremental();
  // Fuzzing iterations on top of the prefix.
  for (int i = 0; i < 5; i++) {
    vm.mem().base()[0] = 200;
    vm.mem().base()[kPageSize] = 201;
    vm.disk().WriteBytes(100, "junk", 4);
    vm.devices().regs(0)[1] = 0x99;
    vm.RestoreIncremental();
    EXPECT_EQ(vm.mem().base()[0], 11);
    EXPECT_EQ(vm.mem().base()[kPageSize], 0);
    EXPECT_EQ(vm.devices().regs(0)[1], 0x55);
    char buf[4] = {};
    vm.disk().ReadBytes(0, buf, 3);
    EXPECT_EQ(0, memcmp(buf, "pfx", 3));
    char junk[5] = {};
    vm.disk().ReadBytes(100, junk, 4);
    EXPECT_EQ(0, memcmp(junk, "\0\0\0\0", 4));
  }
  EXPECT_EQ(vm.stats().incremental_restores, 5u);
}

TEST(VmTest, RootRestoreAfterIncrementalRevertsPrefix) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[3 * kPageSize] = 42;
  vm.disk().WriteBytes(0, "pfx", 3);
  vm.CreateIncremental();
  vm.mem().base()[4 * kPageSize] = 43;
  vm.RestoreIncremental();
  // Schedule a different input: back to root. Prefix effects must vanish,
  // including pages/sectors only dirtied before the incremental snapshot.
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);
  EXPECT_EQ(vm.mem().base()[4 * kPageSize], 0);
  char buf[4] = {};
  vm.disk().ReadBytes(0, buf, 3);
  EXPECT_EQ(0, memcmp(buf, "\0\0\0", 3));
  EXPECT_FALSE(vm.has_incremental());
}

TEST(VmTest, RootRestoreDirectlyAfterIncrementalCreate) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[7 * kPageSize] = 1;
  vm.CreateIncremental();
  // No incremental restore in between.
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[7 * kPageSize], 0);
}

TEST(VmTest, RootRestoreAfterDropIncrementalRevertsCapturedPages) {
  // Regression test for a restore-completeness bug the divergence auditor
  // found: CreateIncremental re-arms the tracker, so the captured pages are
  // no longer in the dirty stack. DropIncremental invalidates the snapshot
  // but leaves those pages in memory — the next root restore must still
  // revert them even though has_incremental() is false by then.
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[3 * kPageSize] = 42;  // prefix writes
  vm.CreateIncremental();               // page 3 leaves the dirty tracker
  vm.DropIncremental();                 // fuzzer schedules a different input
  ASSERT_FALSE(vm.has_incremental());
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);
}

TEST(VmTest, RootRestoreAfterIncrementalRestoreThenDrop) {
  // Same bug, longer path: resume through the incremental a few times first,
  // so the captured pages hold prefix state with a clean tracker, then drop.
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[3 * kPageSize] = 42;
  vm.CreateIncremental();
  for (int i = 0; i < 3; i++) {
    vm.mem().base()[9 * kPageSize] = static_cast<uint8_t>(i + 1);  // suffix writes
    vm.RestoreIncremental();
  }
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 42);  // prefix state intact
  vm.DropIncremental();
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);
  EXPECT_EQ(vm.mem().base()[9 * kPageSize], 0);
}

TEST(VmTest, AuxBlobFollowsSnapshots) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot(ToBytes("root-aux"));
  EXPECT_EQ(ToString(vm.current_aux()), "root-aux");
  vm.mem().base()[0] = 1;
  vm.CreateIncremental(ToBytes("inc-aux"));
  EXPECT_EQ(ToString(vm.current_aux()), "inc-aux");
  vm.mem().base()[0] = 2;
  vm.RestoreIncremental();
  EXPECT_EQ(ToString(vm.current_aux()), "inc-aux");
  vm.RestoreRoot();
  EXPECT_EQ(ToString(vm.current_aux()), "root-aux");
}

TEST(VmTest, RecreateIncrementalForNewPrefix) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[1 * kPageSize] = 10;
  vm.CreateIncremental();
  vm.RestoreRoot();

  vm.mem().base()[2 * kPageSize] = 20;
  vm.CreateIncremental();
  vm.mem().base()[3 * kPageSize] = 30;
  vm.RestoreIncremental();
  EXPECT_EQ(vm.mem().base()[1 * kPageSize], 0);   // old prefix gone
  EXPECT_EQ(vm.mem().base()[2 * kPageSize], 20);  // new prefix present
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);   // suffix reverted
}

TEST(VmTest, ClockChargedForRestores) {
  Vm vm(SmallConfig());
  VirtualClock clock;
  CostModel cost;
  vm.AttachClock(&clock, &cost);
  vm.TakeRootSnapshot();
  vm.mem().base()[0] = 1;
  const uint64_t before = clock.now_ns();
  vm.RestoreRoot();
  const uint64_t charged = clock.now_ns() - before;
  EXPECT_GE(charged, cost.snapshot_restore_fixed_ns + cost.snapshot_page_copy_ns);
}

TEST(VmTest, StatsCountPagesRestored) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[0] = 1;
  vm.mem().base()[kPageSize] = 1;
  vm.RestoreRoot();
  EXPECT_EQ(vm.stats().pages_restored, 2u);
}

bool PageIsZero(Vm& vm, uint32_t page) {
  static const uint8_t kZeros[kPageSize] = {};
  return memcmp(vm.mem().base() + static_cast<size_t>(page) * kPageSize, kZeros, kPageSize) == 0;
}

TEST(VmTest, UntouchedGuestRootIsEmptyAndHolesRevertToZeros) {
  VmConfig cfg;
  cfg.mem_pages = 262144;  // 1 GiB
  cfg.disk_sectors = 16;
  Vm vm(cfg);
  vm.TakeRootSnapshot();
  EXPECT_EQ(vm.root().stored_pages(), 0u);

  // A post-root write to a hole reverts to zeros on a root restore.
  const uint32_t hole = 200000;
  vm.mem().base()[static_cast<size_t>(hole) * kPageSize + 9] = 0xab;
  vm.RestoreRoot();
  EXPECT_TRUE(PageIsZero(vm, hole));

  // ... and on a restore to a snapshot that did not capture it.
  vm.mem().base()[static_cast<size_t>(5) * kPageSize] = 0x11;
  vm.CreateIncremental();
  vm.mem().base()[static_cast<size_t>(hole) * kPageSize + 9] = 0xcd;
  vm.RestoreIncremental();
  EXPECT_TRUE(PageIsZero(vm, hole));
  EXPECT_EQ(vm.mem().base()[static_cast<size_t>(5) * kPageSize], 0x11);
  vm.RestoreRoot();
  EXPECT_TRUE(PageIsZero(vm, 5));
}

// Property test: arbitrary interleavings of writes, incremental captures and
// restores never corrupt state.
class VmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmPropertyTest, SnapshotProtocolNeverCorrupts) {
  Rng rng(GetParam());
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  Bytes root_image(vm.mem().size_bytes());
  memcpy(root_image.data(), vm.mem().base(), root_image.size());

  for (int round = 0; round < 30; round++) {
    // Prefix writes.
    for (int i = 0; i < 10; i++) {
      vm.mem().base()[rng.Below(vm.mem().size_bytes())] = rng.NextByte();
    }
    const bool use_incremental = rng.Chance(1, 2);
    Bytes prefix_image(vm.mem().size_bytes());
    if (use_incremental) {
      vm.CreateIncremental();
      memcpy(prefix_image.data(), vm.mem().base(), prefix_image.size());
      const uint64_t iterations = rng.Range(1, 4);
      for (uint64_t it = 0; it < iterations; it++) {
        for (int i = 0; i < 10; i++) {
          vm.mem().base()[rng.Below(vm.mem().size_bytes())] = rng.NextByte();
        }
        vm.RestoreIncremental();
        ASSERT_EQ(0, memcmp(vm.mem().base(), prefix_image.data(), prefix_image.size()))
            << "round " << round << " iter " << it;
      }
    }
    vm.RestoreRoot();
    ASSERT_EQ(0, memcmp(vm.mem().base(), root_image.data(), root_image.size()))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmPropertyTest,
                         ::testing::Values(100, 200, 300, 400, 500, 600));

}  // namespace
}  // namespace nyx
