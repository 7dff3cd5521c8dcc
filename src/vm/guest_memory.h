// Guest physical memory with hardware-style dirty-page logging.
//
// The paper relies on KVM's hardware-assisted dirty logging: the CPU traps
// the first write to each page and reports it to the hypervisor. We
// reproduce the signal in userspace with mprotect (DESIGN.md §12): the
// region is write-protected, the first write to a page raises a SIGSEGV,
// and the handler marks the page in the preallocated DirtyTracker stack and
// makes it writable again. Restore cost stays O(#dirty).
//
// Restore protocol (used by Vm and the Agamotto manager):
//   <read tracker, decide pages>
//   OpenForRestore(pages, n);       // make protected pages writable,
//   <memcpy snapshot content in>    //   without polluting the dirty log
//   SealAfterRestore();             // pin hot pages, re-protect opened +
//                                   //   unpinned dirty, clear, re-arm
// Opening and sealing coalesce runs of pages into single mprotect calls.
//
// Pinned pages (DESIGN.md §12). Each Seal/ReArm ends an epoch, and epochs
// are grouped into windows of kPinWindow. A page dirty in kPinAfter epochs
// of one window is pinned: it stays writable and dirty, at the bottom of the
// tracker's stack, and is left out of every re-protect list. Restores and
// captures copy it like any dirty page, so reverting stays exact, but writes
// to it do not trap. Invariant: tracker dirt ⊇ pinned set. The window's end
// unpins every page and protects it again (a page pinned in it re-pins at
// its next dirty epoch), and so does ArmTracking.

#ifndef SRC_VM_GUEST_MEMORY_H_
#define SRC_VM_GUEST_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/sync.h"
#include "src/vm/dirty_tracker.h"
#include "src/vm/page.h"

namespace nyx {

// The mprotect wrapper for protection changes that are not dirty tracking
// (the guard page, sealing the root snapshot's read-only view). The nyx_lint
// `raw-mprotect` rule bans mprotect outside src/vm/guest_memory.*, so every
// page-protection change is either tracking, here, or goes through this
// greppable call. Aborts on failure.
void RawProtect(void* addr, size_t len, int prot);

// Last-resort hook consulted when a SIGSEGV cannot be resolved as a
// dirty-tracking fault (e.g. a target bug walked off guest memory). If the
// hook returns, it must not return control to the faulting instruction —
// implementations siglongjmp back into the execution engine. Returning
// false reinstates the default fatal behaviour.
using UnresolvedFaultHook = bool (*)();
void SetUnresolvedFaultHook(UnresolvedFaultHook hook);

class GuestMemory {
 public:
  explicit GuestMemory(size_t num_pages);
  ~GuestMemory();

  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  size_t size_bytes() const { return num_pages_ * kPageSize; }
  size_t num_pages() const { return num_pages_; }

  // Write-protects the whole region and clears the dirty set. From this point
  // every first write per page is recorded.
  void ArmTracking();

  // Makes everything writable and stops recording (used during setup).
  void DisarmTracking();

  bool armed() const { return armed_; }

  // Makes still-protected pages writable without marking them dirty; the
  // restore path writes snapshot content through this window. Pages already
  // dirty (hence writable) are skipped. May be called repeatedly before the
  // closing SealAfterRestore().
  void OpenForRestore(const uint32_t* pages, size_t n);

  // Re-protects everything OpenForRestore opened, then ReArmDirtyPages().
  // Completes the restore protocol.
  void SealAfterRestore();

  // Ends an epoch: pins the pages that reached kPinAfter dirty epochs in
  // this window (or unpins all at the window's end), re-protects exactly the
  // unpinned dirty pages and clears the tracker (pinned pages stay dirty).
  // Alone, it is the cheap re-arm after a capture, when nothing was opened.
  void ReArmDirtyPages();

  // A trap costs ~8-9 µs per page (SIGSEGV, mprotect in the handler,
  // mprotect at re-arm) against ~50 ns to copy a page left open, so pinning
  // breaks even at about one write per 160 epochs. Pinning after kPinAfter
  // dirty epochs out of a kPinWindow-epoch window asks for one write per
  // 128: the pages every exec writes (target state, heap meta) pin within a
  // window, a page written once per thousand epochs almost never does.
  static constexpr uint8_t kPinAfter = 8;
  static constexpr uint32_t kPinWindow = 1024;
  // Bounds what a pin set can cost within one window: 32 page copies
  // (~1.6 µs) per restore or capture, a fifth of one trap.
  static constexpr size_t kMaxPinnedPages = 32;
  size_t pinned_pages() const { return tracker_.pinned_count(); }

  DirtyTracker& tracker() { return tracker_; }
  const DirtyTracker& tracker() const { return tracker_; }

  // Typed view into guest memory. The object must fit inside the region.
  template <typename T>
  T* At(uint64_t guest_offset) {
    return reinterpret_cast<T*>(base_ + guest_offset);
  }

  // Called by the SIGSEGV handler. Returns true if `addr` was a tracking
  // fault inside this region and has been resolved.
  bool HandleFault(uintptr_t addr);

  bool Contains(uintptr_t addr) const {
    return addr >= reinterpret_cast<uintptr_t>(base_) &&
           addr < reinterpret_cast<uintptr_t>(base_) + size_bytes();
  }

  // mprotect calls issued on the tracked range, for overhead statistics.
  uint64_t protect_calls() const { return protect_calls_.load(std::memory_order_relaxed); }

 private:
  // Counts the ending epoch for every unpinned dirty page and pins those
  // that reach kPinAfter while fewer than kMaxPinnedPages are pinned. At
  // the window's end, restarts the counts and unpins every page.
  void EndPinEpoch();

  // Sets the protection of `count` pages from `first_page`: one mprotect
  // call, counted in protect_calls().
  void Protect(uint32_t first_page, size_t count, int prot);
  // Coalesces runs of consecutive pages into single Protect calls.
  void ProtectList(const uint32_t* pages, size_t n, int prot);

  uint8_t* base_ = nullptr;
  size_t num_pages_;
  bool armed_ = false;
  DirtyTracker tracker_;
  // Atomic because HandleFault bumps it from inside the SIGSEGV handler;
  // a plain field lets the compiler cache reads across the faulting writes.
  std::atomic<uint64_t> protect_calls_{0};
  // Pages opened (made writable while clean) since the last seal,
  // preallocated so restores never allocate.
  std::vector<uint32_t> opened_;
  size_t opened_count_ = 0;
  // Per page: epochs of the current window it was dirty in, saturating at
  // kPinAfter; window_epochs_ counts the window's epochs so far.
  std::vector<uint8_t> window_dirty_epochs_;
  uint32_t window_epochs_ = 0;
  // A region must live its whole life on the thread that constructed it
  // (the SIGSEGV handler only resolves faults for regions owned by the
  // faulting thread — DESIGN.md §8.1). Debug builds check that at every
  // arm/disarm boundary instead of trusting the comment.
  ThreadChecker thread_checker_;
};

}  // namespace nyx

#endif  // SRC_VM_GUEST_MEMORY_H_
