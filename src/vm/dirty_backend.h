// Pluggable dirty-page tracking backends (DESIGN.md §12).
//
// The paper's dirty logging rides on KVM's hardware-assisted write
// protection; in userspace there is more than one way to get the same
// signal, with very different cost profiles:
//
//   kMprotect   write-protect the region and catch the first write per page
//               as a SIGSEGV (2 syscalls + 1 signal per first write). The
//               default: works everywhere, cost is O(#dirty).
//   kUffd       userfaultfd write-protect mode: faults are delivered as
//               messages on a file descriptor and resolved by a monitor
//               thread (1 range ioctl per re-arm instead of per-page
//               mprotect; no SIGSEGV plumbing on the hot path).
//   kSoftDirty  passive harvesting of the kernel's soft-dirty PTE bits via
//               /proc/self/pagemap: writes run at full speed with *zero*
//               per-write cost; the dirty set is read back with one pagemap
//               scan per sync (O(#pages) read, no faults at all).
//   kSoftware   no hardware tracking: dirty marks come only from the
//               explicit GuestMemory::Write()/Memset() accessors (unit
//               tests of tracker logic; NYX_TRACKER cannot select it).
//
// Every backend feeds the same preallocated DirtyTracker stack, so snapshot
// capture/restore code is backend-agnostic and Clear() stays O(#dirty).
// Backends that need kernel features probe for them in Attach(); when the
// kernel says no, CreateDirtyBackend falls back to mprotect and warns once
// per mode per process.

#ifndef SRC_VM_DIRTY_BACKEND_H_
#define SRC_VM_DIRTY_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/vm/dirty_tracker.h"

namespace nyx {

enum class TrackingMode {
  kMprotect,   // write-protection faults via SIGSEGV (default)
  kSoftware,   // dirty marks only via the explicit accessors
  kUffd,       // userfaultfd write-protect faults, monitor-thread resolved
  kSoftDirty,  // passive /proc/self/pagemap soft-dirty harvesting
};

// Stable lowercase name ("mprotect", "software", "uffd", "softdirty").
const char* TrackingModeName(TrackingMode mode);
// Parses a mode name (as accepted by NYX_TRACKER); `def` on empty/unknown.
TrackingMode TrackingModeFromName(const std::string& name, TrackingMode def);
// Reads NYX_TRACKER; `def` when unset. This is the only place the knob is
// resolved — bare GuestMemory construction keeps its compile-time default so
// unit tests of one specific backend are immune to the environment. Dies on
// "software": a campaign under it would look normal while every restore
// misses the target's direct stores.
TrackingMode TrackingModeFromEnv(TrackingMode def);

// The sanctioned raw mprotect wrapper for *non-tracking* protection changes
// (guard pages, sealing read-only snapshot views). The nyx_lint
// `raw-mprotect` rule bans direct mprotect calls outside this file so no
// page-protection change can bypass the backend layer. Aborts on failure.
void RawProtect(void* addr, size_t len, int prot);

// /proc/self/pagemap: one 64-bit entry per virtual page of this process.
// The single reader of the file, shared by the soft-dirty backend (bit 55)
// and the root snapshot, which stores only pages that are present (bit 63)
// or swapped out (bit 62).
class Pagemap {
 public:
  static constexpr unsigned kSoftDirtyBit = 55;
  static constexpr unsigned kSwappedBit = 62;
  static constexpr unsigned kPresentBit = 63;

  Pagemap();  // opens the file; ok() says whether that worked
  ~Pagemap();

  Pagemap(const Pagemap&) = delete;
  Pagemap& operator=(const Pagemap&) = delete;

  bool ok() const { return fd_ >= 0; }

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

// One backend instance tracks one GuestMemory region. All methods except the
// internals of fault delivery run on the region's owning thread.
//
// Contract with GuestMemory (the only caller):
//  * Attach() is called once, before any other method. It probes for kernel
//    support and returns false when this backend cannot run here; the
//    factory then falls back. After a false return the object is destroyed
//    without further calls.
//  * Arm() write-protects (or begins logging for) the whole region. The
//    caller clears the tracker; the backend resets any internal log.
//  * Disarm() makes the whole region writable and stops logging.
//  * Sync() drains backend-internal dirty state into the tracker. Callers
//    must Sync() before reading the tracker and before ReArmPages() whenever
//    needs_sync() is true (passive backends have no other way to publish).
//  * OpenPages(pages, n) makes still-protected pages writable *without*
//    marking them dirty — the restore path writes root/ancestor content
//    through this window. No-op for backends whose pages are always
//    writable.
//  * ReArmPages(pages, n) re-protects exactly `pages` (the union of dirty
//    and opened pages; everything else is still protected). The caller
//    clears the tracker afterwards. Passive backends reset their whole log
//    here instead.
//  * HandleFault(addr) resolves a SIGSEGV at addr if it was a tracking
//    fault (mprotect backend only; async-signal-safe).
class DirtyBackend {
 public:
  DirtyBackend(uint8_t* base, size_t num_pages, DirtyTracker* tracker,
               std::atomic<uint64_t>* protect_calls)
      : base_(base), num_pages_(num_pages), tracker_(tracker), protect_calls_(protect_calls) {}
  virtual ~DirtyBackend() = default;

  DirtyBackend(const DirtyBackend&) = delete;
  DirtyBackend& operator=(const DirtyBackend&) = delete;

  virtual bool Attach() = 0;
  virtual void Arm() = 0;
  virtual void Disarm() = 0;
  virtual void Sync() {}
  virtual bool needs_sync() const { return false; }
  virtual void OpenPages(const uint32_t* pages, size_t n) {
    (void)pages;
    (void)n;
  }
  virtual void ReArmPages(const uint32_t* pages, size_t n) = 0;
  virtual bool HandleFault(uintptr_t addr) {
    (void)addr;
    return false;
  }
  // True when faults are delivered via SIGSEGV and the region must be in the
  // process-wide handler registry (guest_memory.cc).
  virtual bool wants_segv_handler() const { return false; }
  virtual TrackingMode mode() const = 0;
  const char* name() const { return TrackingModeName(mode()); }

 protected:
  uint8_t* base_;
  size_t num_pages_;
  DirtyTracker* tracker_;
  std::atomic<uint64_t>* protect_calls_;
};

// Builds the backend for `requested` over an existing mapping. When the
// requested backend's Attach() probe fails (kernel too old, feature
// disabled, exclusivity lost), returns the mprotect backend instead and
// warns once per requested mode per process. `*effective` receives the mode
// actually running.
std::unique_ptr<DirtyBackend> CreateDirtyBackend(TrackingMode requested, uint8_t* base,
                                                 size_t num_pages, DirtyTracker* tracker,
                                                 std::atomic<uint64_t>* protect_calls,
                                                 TrackingMode* effective);

// True when `mode` can actually run on this kernel (probes with a scratch
// region; mprotect/software are always available). Used by tests and CI to
// decide skip-vs-run without constructing a full VM.
bool TrackingModeAvailable(TrackingMode mode);

}  // namespace nyx

#endif  // SRC_VM_DIRTY_BACKEND_H_
