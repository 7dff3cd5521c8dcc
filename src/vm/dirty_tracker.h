// Dirty-page accounting, modeled on the paper's description of KVM + Nyx:
//
//  - KVM maintains a bitmap with *one byte per page* ("For some reason, KVM
//    uses 1 byte in the bitmap for each page in the physical memory").
//    AGAMOTTO walks this whole bitmap to find dirty pages.
//  - Nyx's KVM extension additionally maintains a *stack* of dirty page
//    indices, so resets never scan memory-proportional state. "For a 4GB VM,
//    Nyx's stack of dirty pages saves approximately 1MB of memory bandwidth
//    per test case."
//
// Both structures are kept here so the two restore strategies can be compared
// head-to-head (Figure 6). All storage is preallocated because MarkDirty is
// called from a SIGSEGV handler and must not allocate.
//
// The bottom of the stack may hold *pinned* pages (GuestMemory pins pages
// that every epoch dirties, DESIGN.md §12): they stay dirty across Clear()
// until UnpinAll(), so every capture and restore keeps copying them.

#ifndef SRC_VM_DIRTY_TRACKER_H_
#define SRC_VM_DIRTY_TRACKER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/telemetry.h"
#include "src/vm/page.h"

namespace nyx {

class DirtyTracker {
 public:
  explicit DirtyTracker(size_t num_pages);

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  // Records a first write to `page`. Async-signal-safe: touches only
  // preallocated storage. Idempotent per arming period.
  void MarkDirty(uint32_t page);

  bool IsDirty(uint32_t page) const { return bitmap_[page] != 0; }

  // Nyx-style access: the exact set of dirty pages, O(#dirty).
  const uint32_t* stack_data() const { return stack_.data(); }
  size_t stack_size() const { return stack_size_; }

  // Zero-copy view of the dirty stack: pinned pages first, then the rest in
  // dirtying order. Valid until the next MarkDirty/Pin/Clear; snapshot
  // capture and restores iterate this directly instead of copying the set.
  std::span<const uint32_t> dirty() const { return {stack_.data(), stack_size_}; }

  // The dirty pages above the pinned prefix: what a re-arm must protect.
  std::span<const uint32_t> unpinned() const {
    return {stack_.data() + pinned_, stack_size_ - pinned_};
  }

  // Pins the unpinned entry at `index` (pinned_count() <= index <
  // stack_size()) by swapping it to the top of the pinned prefix. A pinned
  // page stays dirty across Clear().
  void Pin(size_t index);
  size_t pinned_count() const { return pinned_; }
  // Returns every pinned page to the ordinary dirty set; the next Clear()
  // drops them like any other dirty page.
  void UnpinAll() { pinned_ = 0; }

  // AGAMOTTO-style access: scan the whole one-byte-per-page bitmap. O(#pages).
  template <typename Fn>
  void ForEachDirtyByBitmapWalk(Fn&& fn) const {
    for (size_t i = 0; i < bitmap_.size(); i++) {
      if (bitmap_[i] != 0) {
        fn(static_cast<uint32_t>(i));
      }
    }
  }

  // Clears only the entries named by the stack — the trick that makes Nyx
  // resets independent of VM size. Pinned entries stay.
  void Clear();

  size_t num_pages() const { return bitmap_.size(); }

  // Number of simulated ring-full VM exits: one per kDirtyRingCapacity
  // newly dirtied pages, the paper's dirty ring (§2.3).
  uint64_t ring_exits() const { return ring_exits_; }
  uint64_t total_marks() const { return total_marks_; }

 private:
  std::vector<uint8_t> bitmap_;  // 1 byte per page, like KVM's log.
  std::vector<uint32_t> stack_;  // preallocated to num_pages.
  size_t stack_size_ = 0;
  size_t pinned_ = 0;  // stack_[0, pinned_) are pinned
  size_t ring_fill_ = 0;
  uint64_t ring_exits_ = 0;
  uint64_t total_marks_ = 0;
  // Registry counters, resolved once in the constructor so MarkDirty stays
  // async-signal-safe (Counter::Add is a relaxed fetch_add, no allocation).
  telemetry::Counter* marks_counter_;
  telemetry::Counter* ring_exit_counter_;
};

}  // namespace nyx

#endif  // SRC_VM_DIRTY_TRACKER_H_
