// Root and incremental VM snapshots (paper sections 2.3 and 4.2).
//
// Root snapshot: guest physical memory in a memfd, plus device and disk
// state. Restoring copies back only the pages named by the dirty stack.
// The memfd is sparse: it stores the non-zero pages the guest populated
// before the root and leaves every other page a hole, so capture time and
// memory follow the pages boot touched, not the guest size. One pagemap
// pass skips the pages that are neither present nor swapped out (never
// touched, so zero); a word scan drops the populated pages that are all
// zeros. PagePtr() hands out a shared zero page for a hole, because a read
// through the memfd view would allocate a shmem page for it.
//
// Incremental snapshot: "we simply remap the existing root snapshot to a
// second location as Copy-On-Write pages. This way, the incremental snapshot
// itself looks like a complete root snapshot without incurring anywhere near
// the full memory cost. To create the incremental snapshot, the pages that
// were dirtied by the execution since the root snapshot are overwritten with
// the content of the VM's physical memory."
//
// We implement this literally: the mirror is an mmap(MAP_PRIVATE) of the
// root memfd; writing a dirtied page into the mirror triggers a kernel CoW
// fault that creates a private copy of just that page (for a hole, the
// kernel also allocates the zeroed shmem source page; it stays in the memfd,
// unmapped, once per distinct page ever captured). Pages captured by a
// previous incremental snapshot but absent from the next one are reverted by
// copying the root content over the (already private) mirror page — reusing
// the existing copy "avoids more expensive changes to the page tables". To
// bound the accumulation of private pages (worst case: a full second copy of
// the VM), the mirror is re-mapped fresh every kReMirrorInterval creations.

#ifndef SRC_VM_SNAPSHOT_H_
#define SRC_VM_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/vm/block_device.h"
#include "src/vm/device_state.h"
#include "src/vm/guest_memory.h"

namespace nyx {

inline constexpr uint64_t kReMirrorInterval = 2000;

// /proc/self/pagemap: one 64-bit entry per virtual page of this process.
// The root snapshot reads it to store only pages that are present (bit 63)
// or swapped out (bit 62).
class Pagemap {
 public:
  static constexpr unsigned kSwappedBit = 62;
  static constexpr unsigned kPresentBit = 63;

  Pagemap();  // opens the file; Read() fails if that did not work
  ~Pagemap();

  Pagemap(const Pagemap&) = delete;
  Pagemap& operator=(const Pagemap&) = delete;

  // Reads the entries of the `count` pages from page-aligned `addr` into
  // `out`. False when the file is not open or the read comes up short.
  bool Read(const void* addr, size_t count, uint64_t* out) const;

  // A page that is neither present nor swapped out was never populated:
  // anonymous memory in that state reads as zero.
  static bool Populated(uint64_t entry) {
    return ((entry >> kPresentBit) & 1) != 0 || ((entry >> kSwappedBit) & 1) != 0;
  }

 private:
  int fd_ = -1;
};

class RootSnapshot {
 public:
  RootSnapshot(const GuestMemory& mem, const DeviceState& devices, const BlockDevice& disk);
  ~RootSnapshot();

  RootSnapshot(const RootSnapshot&) = delete;
  RootSnapshot& operator=(const RootSnapshot&) = delete;

  // Root content of `page`; a page the root does not store is all zeros.
  const uint8_t* PagePtr(uint32_t page) const {
    return stored_[page] != 0 ? view_ + static_cast<size_t>(page) * kPageSize : kZeroPage;
  }
  int memfd() const { return memfd_; }
  size_t size_bytes() const { return size_bytes_; }
  // Pages the memfd holds data for; the rest are holes.
  size_t stored_pages() const { return stored_pages_; }

  const DeviceState& devices() const { return devices_; }
  const BlockDevice::RootLayer& disk() const { return disk_; }

 private:
  alignas(kPageSize) static constexpr uint8_t kZeroPage[kPageSize] = {};

  int memfd_ = -1;
  size_t size_bytes_ = 0;
  const uint8_t* view_ = nullptr;  // read-only shared mapping of the memfd
  std::vector<uint8_t> stored_;    // page -> copied into the memfd
  size_t stored_pages_ = 0;
  DeviceState devices_;
  BlockDevice::RootLayer disk_;
};

class IncrementalSnapshot {
 public:
  explicit IncrementalSnapshot(const RootSnapshot& root);
  ~IncrementalSnapshot();

  IncrementalSnapshot(const IncrementalSnapshot&) = delete;
  IncrementalSnapshot& operator=(const IncrementalSnapshot&) = delete;

  // Captures the current VM state: pages in `mem`'s dirty stack are written
  // into the CoW mirror; device and disk state are copied. May be called
  // repeatedly — prior captures are reverted as needed.
  void Capture(const GuestMemory& mem, const DeviceState& devices, const BlockDevice& disk);

  bool valid() const { return valid_; }
  void Invalidate() { valid_ = false; }

  // Pages dirtied between the parent snapshot and this capture (the delta
  // this capture stores). A later restore past this snapshot must revert
  // these in addition to the current dirty stack.
  const std::vector<uint32_t>& base_pages() const { return base_pages_; }

  // True when `page` is in this capture's delta, i.e. PagePtr(page) holds
  // content captured here rather than inherited root content. The snapshot
  // tree's lineage resolution (Vm::RestoreTo) walks ancestors with this.
  bool has_page(uint32_t page) const { return in_delta_[page] != 0; }

  const uint8_t* PagePtr(uint32_t page) const {
    return mirror_ + static_cast<size_t>(page) * kPageSize;
  }

  const DeviceState& devices() const { return devices_; }
  const BlockDevice::IncrementalLayer& disk() const { return disk_; }

  // Accounting for the re-mirror ablation.
  uint64_t captures() const { return captures_; }
  uint64_t remirrors() const { return remirrors_; }
  size_t private_pages() const { return private_page_count_; }

 private:
  void ReMirror();

  const RootSnapshot& root_;
  uint8_t* mirror_ = nullptr;
  size_t size_bytes_ = 0;
  bool valid_ = false;
  std::vector<uint32_t> base_pages_;
  std::vector<uint8_t> in_delta_;   // page -> in base_pages_ of the last capture
  std::vector<uint8_t> in_mirror_;  // page -> has a private copy in the mirror
  size_t private_page_count_ = 0;
  uint64_t captures_ = 0;
  uint64_t remirrors_ = 0;
  DeviceState devices_;
  BlockDevice::IncrementalLayer disk_;
};

}  // namespace nyx

#endif  // SRC_VM_SNAPSHOT_H_
