// Shadow-model property test for the VM's snapshot pair (src/vm/vm.h): one
// root snapshot and one incremental snapshot. Random interleavings of
// writes, CreateIncremental, RestoreIncremental, DropIncremental and
// RestoreRoot run against full-memory images of the root and the
// incremental state. The fixed-sequence tests of the pair live in
// vm_test.cc.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

// Half the writes land on two hot pages, as a target's state struct does,
// so those pages pin open (GuestMemory::kPinAfter) early and the rest of
// the run checks both restores with pinned pages in the dirty set,
// including the root restore after a drop, which must also revert the
// dropped incremental's delta. The run spans several GuestMemory::kPinWindow
// windows, so the pin set is also dropped and re-earned between snapshot
// operations. Boot scatters random bytes, zeros among them, so the sparse
// root holds stored pages, populated zero pages and holes. After the
// windows, the run now and then re-roots with tracking armed (a re-root
// restarts the pin window).
class SnapshotPairPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotPairPropertyTest, PairMatchesShadowImages) {
  Rng rng(GetParam());
  VmConfig cfg;
  cfg.mem_pages = 64;
  cfg.disk_sectors = 64;
  Vm vm(cfg);
  const size_t bytes = vm.mem().size_bytes();
  for (int i = 0; i < 40; i++) {
    vm.mem().base()[rng.Below(bytes)] = rng.Chance(1, 4) ? 0 : rng.NextByte();
  }
  vm.TakeRootSnapshot();

  Bytes root_image(bytes);
  Bytes inc_image(bytes);
  memcpy(root_image.data(), vm.mem().base(), bytes);
  bool at_root = true;   // no incremental created since the last root restore
  bool dropped = false;  // the incremental was dropped since it was created
  size_t pinned_inc_restores = 0;
  size_t pinned_root_restores_after_drop = 0;
  size_t window_unpins = 0;
  size_t reroots = 0;

  for (int step = 0; step < 7000; step++) {
    if (step >= 5000 && step < 6800 && rng.Chance(1, 150)) {
      // The new root holds the current dirt and pinned pages; the
      // incremental and the pin set start over.
      vm.TakeRootSnapshot();
      memcpy(root_image.data(), vm.mem().base(), bytes);
      at_root = true;
      dropped = false;
      reroots++;
      continue;
    }
    const size_t pinned_before = vm.mem().pinned_pages();
    const uint64_t action = rng.Below(10);
    if (action < 5) {
      const uint64_t off = rng.Chance(1, 2) ? (1 + rng.Below(2)) * kPageSize + rng.Below(kPageSize)
                                            : rng.Below(bytes);
      vm.mem().base()[off] = rng.NextByte();
    } else if (action < 6 && at_root) {
      vm.CreateIncremental();
      memcpy(inc_image.data(), vm.mem().base(), bytes);
      at_root = false;
    } else if (action < 8 && vm.has_incremental()) {
      if (vm.mem().pinned_pages() > 0) {
        pinned_inc_restores++;
      }
      vm.RestoreIncremental();
      ASSERT_EQ(0, memcmp(vm.mem().base(), inc_image.data(), bytes))
          << "step " << step << " incremental restore";
    } else if (action < 9 && vm.has_incremental()) {
      vm.DropIncremental();
      dropped = true;
    } else {
      if (dropped && vm.mem().pinned_pages() > 0) {
        pinned_root_restores_after_drop++;
      }
      vm.RestoreRoot();
      at_root = true;
      dropped = false;
      ASSERT_EQ(0, memcmp(vm.mem().base(), root_image.data(), bytes))
          << "step " << step << " root restore";
    }
    ASSERT_EQ(vm.has_incremental(), !at_root && !dropped) << "step " << step;
    if (vm.mem().pinned_pages() < pinned_before) {
      window_unpins++;
    }
  }
  EXPECT_GT(vm.mem().pinned_pages(), 0u);
  EXPECT_GT(pinned_inc_restores, 0u);
  EXPECT_GT(pinned_root_restores_after_drop, 0u);
  EXPECT_GE(window_unpins, 2u);
  EXPECT_GT(reroots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPairPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 1337, 424242));

}  // namespace
}  // namespace nyx
