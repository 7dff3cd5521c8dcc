// Tests for the depth-k incremental snapshot tree (src/vm/vm.h): pushes at
// increasing depth, ancestor and forward restores, invalidation rules, aux
// blob routing, disk/device state along the chain, and a shadow-model
// property test. Depth 1 must behave exactly like the classic
// root+incremental pair.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

VmConfig TreeConfig(size_t depth) {
  VmConfig c;
  c.mem_pages = 64;
  c.disk_sectors = 64;
  c.snapshot_depth = depth;
  return c;
}

uint8_t* PagePtr(Vm& vm, uint32_t page) {
  return vm.mem().base() + static_cast<size_t>(page) * kPageSize;
}

TEST(SnapshotTreeTest, PushGrowsDepthAndRestoreToAncestorKeepsPrefix) {
  Vm vm(TreeConfig(3));
  vm.TakeRootSnapshot();
  PagePtr(vm, 1)[0] = 11;
  EXPECT_EQ(vm.PushSnapshot(), 1u);
  PagePtr(vm, 2)[0] = 22;
  EXPECT_EQ(vm.PushSnapshot(), 2u);
  PagePtr(vm, 3)[0] = 33;
  EXPECT_EQ(vm.PushSnapshot(), 3u);
  EXPECT_EQ(vm.cur_depth(), 3u);
  EXPECT_EQ(vm.max_valid_depth(), 3u);

  PagePtr(vm, 4)[0] = 44;  // dirt on top of depth 3
  vm.RestoreTo(2);
  EXPECT_EQ(vm.cur_depth(), 2u);
  EXPECT_EQ(PagePtr(vm, 1)[0], 11);  // depth-1 delta: shared ancestry, kept
  EXPECT_EQ(PagePtr(vm, 2)[0], 22);  // depth-2 delta: the target state
  EXPECT_EQ(PagePtr(vm, 3)[0], 0);   // depth-3 delta: reverted
  EXPECT_EQ(PagePtr(vm, 4)[0], 0);   // dirt: reverted
  EXPECT_EQ(vm.stats().deep_restores, 1u);
}

TEST(SnapshotTreeTest, AncestorRestoreRevertsOnlyUnsharedSuffix) {
  Vm vm(TreeConfig(3));
  vm.TakeRootSnapshot();
  // Big shared prefix at depth 1, tiny deltas deeper.
  for (uint32_t p = 0; p < 20; p++) {
    PagePtr(vm, p)[0] = 1;
  }
  vm.PushSnapshot();
  PagePtr(vm, 30)[0] = 2;
  vm.PushSnapshot();
  PagePtr(vm, 31)[0] = 3;
  const uint64_t before = vm.stats().pages_restored;
  vm.RestoreTo(1);
  // Only the depth-2 delta (1 page) and the dirt (1 page) move — not the 20
  // shared prefix pages. That is the entire point of the tree.
  EXPECT_EQ(vm.stats().pages_restored - before, 2u);
  for (uint32_t p = 0; p < 20; p++) {
    EXPECT_EQ(PagePtr(vm, p)[0], 1);
  }
  EXPECT_EQ(PagePtr(vm, 30)[0], 0);
  EXPECT_EQ(PagePtr(vm, 31)[0], 0);
}

TEST(SnapshotTreeTest, ForwardRestoreToValidDescendant) {
  Vm vm(TreeConfig(2));
  vm.TakeRootSnapshot();
  PagePtr(vm, 1)[0] = 11;
  vm.disk().WriteBytes(0, "one", 3);
  vm.PushSnapshot();
  PagePtr(vm, 2)[0] = 22;
  vm.disk().WriteBytes(512, "two", 3);
  vm.PushSnapshot();

  vm.RestoreTo(1);
  EXPECT_EQ(PagePtr(vm, 2)[0], 0);
  char buf[4] = {};
  vm.disk().ReadBytes(512, buf, 3);
  EXPECT_EQ(0, memcmp(buf, "\0\0\0", 3));
  EXPECT_EQ(vm.max_valid_depth(), 2u);  // depth 2 still valid: nothing invalidated it

  // Forward again: depth-2 delta reapplied to memory *and* disk.
  vm.RestoreTo(2);
  EXPECT_EQ(PagePtr(vm, 1)[0], 11);
  EXPECT_EQ(PagePtr(vm, 2)[0], 22);
  vm.disk().ReadBytes(512, buf, 3);
  EXPECT_EQ(0, memcmp(buf, "two", 3));
}

TEST(SnapshotTreeTest, PushInvalidatesDeeperSlots) {
  Vm vm(TreeConfig(3));
  vm.TakeRootSnapshot();
  PagePtr(vm, 1)[0] = 1;
  vm.PushSnapshot();
  PagePtr(vm, 2)[0] = 2;
  vm.PushSnapshot();
  PagePtr(vm, 3)[0] = 3;
  vm.PushSnapshot();
  vm.RestoreTo(1);
  ASSERT_EQ(vm.max_valid_depth(), 3u);
  // Recapture at depth 2 from a different state: old depths 2..3 are stale.
  PagePtr(vm, 9)[0] = 9;
  EXPECT_EQ(vm.PushSnapshot(), 2u);
  EXPECT_EQ(vm.max_valid_depth(), 2u);
  // The new depth-2 state must be exact: old deltas from the replaced
  // lineage (pages 2, 3) stay reverted, the recaptured page 9 comes back.
  vm.RestoreTo(2);
  EXPECT_EQ(PagePtr(vm, 1)[0], 1);
  EXPECT_EQ(PagePtr(vm, 9)[0], 9);
  EXPECT_EQ(PagePtr(vm, 2)[0], 0);
  EXPECT_EQ(PagePtr(vm, 3)[0], 0);
}

TEST(SnapshotTreeTest, RootRestoreInvalidatesWholeTree) {
  Vm vm(TreeConfig(2));
  vm.TakeRootSnapshot();
  PagePtr(vm, 1)[0] = 1;
  vm.PushSnapshot();
  PagePtr(vm, 2)[0] = 2;
  vm.PushSnapshot();
  vm.RestoreRoot();
  EXPECT_EQ(vm.max_valid_depth(), 0u);
  EXPECT_FALSE(vm.has_incremental());
  EXPECT_EQ(PagePtr(vm, 1)[0], 0);
  EXPECT_EQ(PagePtr(vm, 2)[0], 0);
}

TEST(SnapshotTreeTest, AuxBlobPerDepth) {
  Vm vm(TreeConfig(2));
  vm.TakeRootSnapshot(ToBytes("root"));
  vm.PushSnapshot(ToBytes("d1"));
  vm.PushSnapshot(ToBytes("d2"));
  EXPECT_EQ(ToString(vm.aux_at(1)), "d1");
  EXPECT_EQ(ToString(vm.aux_at(2)), "d2");
  EXPECT_EQ(ToString(vm.current_aux()), "d2");
  vm.RestoreTo(1);
  EXPECT_EQ(ToString(vm.current_aux()), "d1");
  vm.RestoreTo(2);
  EXPECT_EQ(ToString(vm.current_aux()), "d2");
  vm.RestoreRoot();
  EXPECT_EQ(ToString(vm.current_aux()), "root");
}

TEST(SnapshotTreeTest, DeviceStateFollowsDepth) {
  Vm vm(TreeConfig(2));
  vm.TakeRootSnapshot();
  vm.devices().regs(0)[0] = 0x11;
  vm.PushSnapshot();
  vm.devices().regs(0)[0] = 0x22;
  vm.PushSnapshot();
  vm.devices().regs(0)[0] = 0x33;
  vm.RestoreTo(1);
  EXPECT_EQ(vm.devices().regs(0)[0], 0x11);
  vm.RestoreTo(2);
  EXPECT_EQ(vm.devices().regs(0)[0], 0x22);
  vm.RestoreRoot();
  EXPECT_EQ(vm.devices().regs(0)[0], 0);
}

TEST(SnapshotTreeTest, PushBeyondConfiguredDepthTrapsInDebug) {
  Vm vm(TreeConfig(1));
  vm.TakeRootSnapshot();
  EXPECT_EQ(vm.PushSnapshot(), 1u);
  // Depth 1 is the cap; has_snapshot_at(2) can never become true.
  EXPECT_FALSE(vm.has_snapshot_at(2));
}

// Depth-1 trees must be indistinguishable from the classic root+incremental
// pair: same restore results, same legacy accessors.
TEST(SnapshotTreeTest, DepthOneEquivalentToClassicPair) {
  Vm tree(TreeConfig(1));
  Vm classic(TreeConfig(1));
  tree.TakeRootSnapshot();
  classic.TakeRootSnapshot();

  auto run = [](Vm& vm, bool use_push) {
    PagePtr(vm, 3)[0] = 42;
    vm.disk().WriteBytes(0, "pfx", 3);
    if (use_push) {
      ASSERT_EQ(vm.PushSnapshot(), 1u);
    } else {
      vm.CreateIncremental();
    }
    for (int i = 0; i < 3; i++) {
      PagePtr(vm, 9)[0] = static_cast<uint8_t>(i + 1);
      vm.RestoreIncremental();
    }
  };
  run(tree, true);
  run(classic, false);
  EXPECT_EQ(0, memcmp(tree.mem().base(), classic.mem().base(), tree.mem().size_bytes()));
  EXPECT_TRUE(tree.has_incremental());
  EXPECT_TRUE(classic.has_incremental());
  EXPECT_EQ(tree.stats().incremental_restores, classic.stats().incremental_restores);
  EXPECT_EQ(tree.stats().deep_restores, 0u);

  tree.RestoreRoot();
  classic.RestoreRoot();
  EXPECT_EQ(0, memcmp(tree.mem().base(), classic.mem().base(), tree.mem().size_bytes()));
}

// Shadow-model property: random interleavings of writes, pushes and restores
// against a full-image model of every captured state. Half the writes land
// on two hot pages, as a target's state struct does, so those pages pin
// open (GuestMemory::kPinAfter) early and the rest of the run checks
// ancestor and forward restores with pinned pages in the dirty set. The run
// spans several GuestMemory::kPinWindow windows, so the pin set is also
// dropped and re-earned between tree operations. Boot scatters random bytes,
// zeros among them, so the sparse root holds stored pages, populated zero
// pages and holes. After the windows, the run now and then re-roots with
// tracking armed (a re-root restarts the pin window).
class SnapshotTreePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotTreePropertyTest, TreeMatchesShadowImages) {
  Rng rng(GetParam());
  constexpr size_t kDepth = 3;
  Vm vm(TreeConfig(kDepth));
  const size_t bytes = vm.mem().size_bytes();
  for (int i = 0; i < 40; i++) {
    vm.mem().base()[rng.Below(bytes)] = rng.Chance(1, 4) ? 0 : rng.NextByte();
  }
  vm.TakeRootSnapshot();

  // images[d] = full memory image of the state at depth d (0 = root).
  std::vector<Bytes> images(kDepth + 1);
  images[0].resize(bytes);
  memcpy(images[0].data(), vm.mem().base(), bytes);
  size_t valid_depth = 0;  // deepest d with a trusted image
  size_t pinned_ancestor_restores = 0;
  size_t pinned_forward_restores = 0;
  size_t window_unpins = 0;
  size_t reroots = 0;

  for (int step = 0; step < 7000; step++) {
    if (step >= 5000 && step < 6800 && rng.Chance(1, 150)) {
      // The new root holds the current dirt and pinned pages; the tree and
      // the pin set start over.
      vm.TakeRootSnapshot();
      memcpy(images[0].data(), vm.mem().base(), bytes);
      valid_depth = 0;
      reroots++;
      continue;
    }
    const size_t pinned_before = vm.mem().pinned_pages();
    const uint64_t action = rng.Below(10);
    if (action < 5) {
      const uint64_t off = rng.Chance(1, 2) ? (1 + rng.Below(2)) * kPageSize + rng.Below(kPageSize)
                                            : rng.Below(bytes);
      vm.mem().base()[off] = rng.NextByte();
    } else if (action < 7 && vm.cur_depth() < kDepth) {
      const size_t d = vm.PushSnapshot();
      images[d].resize(bytes);
      memcpy(images[d].data(), vm.mem().base(), bytes);
      valid_depth = d;
    } else if (action < 9 && valid_depth > 0) {
      const size_t target = rng.Below(valid_depth + 1);  // 0..valid_depth
      if (vm.mem().pinned_pages() > 0 && target != vm.cur_depth()) {
        (target > vm.cur_depth() ? pinned_forward_restores : pinned_ancestor_restores)++;
      }
      if (target == 0) {
        vm.RestoreRoot();
        valid_depth = 0;
      } else {
        vm.RestoreTo(target);
      }
      ASSERT_EQ(0, memcmp(vm.mem().base(), images[target].data(), bytes))
          << "step " << step << " restore to depth " << target;
    } else {
      vm.RestoreRoot();
      valid_depth = 0;
      ASSERT_EQ(0, memcmp(vm.mem().base(), images[0].data(), bytes)) << "step " << step;
    }
    if (vm.mem().pinned_pages() < pinned_before) {
      window_unpins++;
    }
  }
  EXPECT_GT(vm.mem().pinned_pages(), 0u);
  EXPECT_GT(pinned_ancestor_restores, 0u);
  EXPECT_GT(pinned_forward_restores, 0u);
  EXPECT_GE(window_unpins, 2u);
  EXPECT_GT(reroots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotTreePropertyTest,
                         ::testing::Values(1, 2, 3, 7, 1337, 424242));

}  // namespace
}  // namespace nyx
