// Tests for root and incremental snapshots: restore-is-identity properties,
// CoW mirror behaviour, revert of stale captures and re-mirroring.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/vm/snapshot.h"

namespace nyx {
namespace {

Bytes Checksum(const GuestMemory& mem) {
  Bytes copy(mem.size_bytes());
  memcpy(copy.data(), mem.base(), mem.size_bytes());
  return copy;
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : mem_(64), disk_(64) {
    devices_.AddDevice("dev0", 128);
    // Deterministic initial contents.
    Rng rng(555);
    for (size_t i = 0; i < mem_.size_bytes(); i += 7) {
      mem_.base()[i] = rng.NextByte();
    }
  }

  GuestMemory mem_;
  DeviceState devices_;
  BlockDevice disk_;
};

TEST_F(SnapshotTest, RootSnapshotPreservesContents) {
  const Bytes before = Checksum(mem_);
  RootSnapshot root(mem_, devices_, disk_);
  for (uint32_t p = 0; p < mem_.num_pages(); p++) {
    EXPECT_EQ(0, memcmp(root.PagePtr(p), before.data() + static_cast<size_t>(p) * kPageSize,
                        kPageSize))
        << "page " << p;
  }
}

// Populated pages in [base, base + pages), or -1 without pagemap.
long PopulatedPages(const uint8_t* base, size_t pages) {
  std::vector<uint64_t> entries(pages);
  if (!Pagemap().Read(base, pages, entries.data())) {
    return -1;
  }
  long populated = 0;
  for (const uint64_t e : entries) {
    populated += Pagemap::Populated(e) ? 1 : 0;
  }
  return populated;
}

// Writes five non-zero pages, one page that ends up zero again and one page
// that is only read into a 16 MiB guest, and expects the root to store the
// five. With `populate_all`, a value-preserving store to every page comes
// first, so pagemap skips nothing and the zero scan alone decides.
void ExpectSparseRoot(bool populate_all) {
  GuestMemory mem(4096);
  DeviceState devices;
  BlockDevice disk(16);
  if (populate_all) {
    volatile uint8_t* guest = mem.base();
    for (size_t i = 0; i < mem.num_pages(); i++) {
      guest[i * kPageSize] = guest[i * kPageSize];
    }
  }
  // The expected image is built beside the guest, not read from it, so no
  // untouched guest page gets populated by the test itself.
  Bytes image(mem.size_bytes(), 0);
  auto write = [&](uint32_t page, size_t off, uint8_t value) {
    const size_t at = static_cast<size_t>(page) * kPageSize + off;
    mem.base()[at] = value;
    image[at] = value;
  };
  const uint32_t last = static_cast<uint32_t>(mem.num_pages() - 1);
  for (const uint32_t page : {0u, 7u, 1000u, 2049u, last}) {
    write(page, page % kPageSize, static_cast<uint8_t>(page | 1));
    write(page, kPageSize - 1, 0x5a);
  }
  write(300, 12, 0x77);  // written, then zeroed again
  write(300, 12, 0);
  volatile uint8_t sink = mem.base()[static_cast<size_t>(3000) * kPageSize];  // only read
  (void)sink;

  const long populated_before = PopulatedPages(mem.base(), mem.num_pages());
  RootSnapshot root(mem, devices, disk);
  EXPECT_EQ(root.stored_pages(), 5u);
  // Pages nothing touched are skipped through pagemap, not scanned: a scan
  // would map a zero page into every one of them.
  EXPECT_EQ(PopulatedPages(mem.base(), mem.num_pages()), populated_before);
  for (uint32_t p = 0; p < mem.num_pages(); p++) {
    ASSERT_EQ(0, memcmp(root.PagePtr(p), image.data() + static_cast<size_t>(p) * kPageSize,
                        kPageSize))
        << "page " << p;
  }
}

TEST(SparseRootTest, StoresOnlyNonZeroPagesBootPopulated) {
  for (const bool populate_all : {false, true}) {
    SCOPED_TRACE(populate_all ? "every page populated" : "written pages populated");
    ExpectSparseRoot(populate_all);
  }
}

TEST_F(SnapshotTest, RootRestoreAfterWrites) {
  RootSnapshot root(mem_, devices_, disk_);
  const Bytes pristine = Checksum(mem_);
  mem_.ArmTracking();
  mem_.base()[5 * kPageSize + 3] = 0xff;
  mem_.base()[9 * kPageSize] = 0xee;
  // Manual restore path (what Vm::RestoreRoot does for the stack pages).
  const uint32_t* stack = mem_.tracker().stack_data();
  for (size_t i = 0; i < mem_.tracker().stack_size(); i++) {
    uint32_t p = stack[i];
    memcpy(mem_.base() + static_cast<size_t>(p) * kPageSize, root.PagePtr(p), kPageSize);
  }
  mem_.ReArmDirtyPages();
  EXPECT_EQ(Checksum(mem_), pristine);
}

TEST_F(SnapshotTest, IncrementalMirrorIsCompleteImage) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  mem_.base()[2 * kPageSize] = 0xaa;
  IncrementalSnapshot inc(root);
  inc.Capture(mem_, devices_, disk_);
  // Captured page holds the new value; untouched pages show root content
  // through the CoW mapping.
  EXPECT_EQ(inc.PagePtr(2)[0], 0xaa);
  EXPECT_EQ(0, memcmp(inc.PagePtr(7), root.PagePtr(7), kPageSize));
  EXPECT_EQ(inc.base_pages().size(), 1u);
  EXPECT_EQ(inc.base_pages()[0], 2u);
}

TEST_F(SnapshotTest, RecaptureRevertsStalePages) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  mem_.base()[2 * kPageSize] = 0xaa;
  IncrementalSnapshot inc(root);
  inc.Capture(mem_, devices_, disk_);
  mem_.ReArmDirtyPages();

  // Second capture with a different page: page 2 must revert to root content
  // in the mirror.
  mem_.base()[4 * kPageSize] = 0xbb;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(0, memcmp(inc.PagePtr(2), root.PagePtr(2), kPageSize));
  EXPECT_EQ(inc.PagePtr(4)[0], 0xbb);
  EXPECT_EQ(inc.base_pages().size(), 1u);
  EXPECT_EQ(inc.base_pages()[0], 4u);
}

TEST_F(SnapshotTest, PrivatePageAccountingAndReuse) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  IncrementalSnapshot inc(root);
  mem_.base()[0] = 1;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(inc.private_pages(), 1u);
  mem_.ReArmDirtyPages();
  // Same page captured again: the private copy is reused, not duplicated.
  mem_.base()[0] = 2;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(inc.private_pages(), 1u);
  EXPECT_EQ(inc.PagePtr(0)[0], 2);
}

TEST_F(SnapshotTest, ReMirrorResetsPrivatePages) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  IncrementalSnapshot inc(root);
  // Drive enough captures to cross the re-mirror interval.
  for (uint64_t i = 0; i < kReMirrorInterval + 1; i++) {
    mem_.base()[(i % 8) * kPageSize] = static_cast<uint8_t>(i);
    inc.Capture(mem_, devices_, disk_);
    mem_.ReArmDirtyPages();
  }
  EXPECT_EQ(inc.remirrors(), 1u);
  EXPECT_LE(inc.private_pages(), 8u);
  // The mirror must still be a valid image after the re-mirror.
  const uint8_t expect = static_cast<uint8_t>(kReMirrorInterval);
  EXPECT_EQ(inc.PagePtr((kReMirrorInterval % 8))[0], expect);
}

TEST_F(SnapshotTest, DeviceAndDiskStateCaptured) {
  disk_.WriteBytes(0, "orig", 4);
  disk_.ClearDirty();
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();

  devices_.regs(0)[0] = 0x42;
  disk_.WriteBytes(0, "newx", 4);
  IncrementalSnapshot inc(root);
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(inc.devices().regs(0)[0], 0x42);
  ASSERT_EQ(inc.disk().sectors.count(0), 1u);
  EXPECT_EQ(0, memcmp(inc.disk().sectors.at(0).data(), "newx", 4));
  EXPECT_EQ(0, memcmp(root.disk().data.data(), "orig", 4));
}

// Property: capture + restore of random write sets is the identity.
class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalPropertyTest, CaptureRestoreIdentity) {
  Rng rng(GetParam());
  GuestMemory mem(32);
  DeviceState devices;
  devices.AddDevice("d", 16);
  BlockDevice disk(16);
  for (size_t i = 0; i < mem.size_bytes(); i += 11) {
    mem.base()[i] = rng.NextByte();
  }
  RootSnapshot root(mem, devices, disk);
  mem.ArmTracking();

  // Random prefix writes, then capture.
  for (int i = 0; i < 40; i++) {
    mem.base()[rng.Below(mem.size_bytes())] = rng.NextByte();
  }
  IncrementalSnapshot inc(root);
  inc.Capture(mem, devices, disk);
  mem.ReArmDirtyPages();
  Bytes at_capture(mem.size_bytes());
  memcpy(at_capture.data(), mem.base(), mem.size_bytes());

  // Random suffix writes, then restore from the mirror.
  for (int i = 0; i < 60; i++) {
    mem.base()[rng.Below(mem.size_bytes())] = rng.NextByte();
  }
  const uint32_t* stack = mem.tracker().stack_data();
  for (size_t i = 0; i < mem.tracker().stack_size(); i++) {
    uint32_t p = stack[i];
    memcpy(mem.base() + static_cast<size_t>(p) * kPageSize, inc.PagePtr(p), kPageSize);
  }
  mem.ReArmDirtyPages();

  Bytes after_restore(mem.size_bytes());
  memcpy(after_restore.data(), mem.base(), mem.size_bytes());
  EXPECT_EQ(after_restore, at_capture);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80));

}  // namespace
}  // namespace nyx
