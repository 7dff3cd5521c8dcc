#include "src/vm/guest_memory.h"

#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/check.h"
#include "src/vm/state_registry.h"

namespace nyx {
namespace {

// Registry of live regions consulted by the (process-wide) SIGSEGV handler.
// Fixed-size, with atomic slots: worker threads (harness/parallel.h) create
// and destroy their own VMs concurrently. Each slot is tagged with the
// registering thread: a tracking fault can only be raised by the thread
// mutating that region's memory, so the handler dereferences only regions
// owned by the faulting thread. That confines every dereference to the one
// thread that also destroys the region — the handler can never touch an
// object another thread is concurrently deleting.
constexpr size_t kMaxRegions = 64;
// One cache line per slot: register/unregister CAS over the whole array
// from many worker threads, and unpadded slots (16 bytes) would put four
// unrelated workers' claims on one line (false sharing on every campaign
// setup/teardown).
struct alignas(kCacheLineSize) RegionSlot {
  std::atomic<GuestMemory*> region{nullptr};
  // pthread_t of the owner, written by the owner right after claiming the
  // slot. Other threads may briefly observe a stale owner and skip the slot
  // — which is exactly what they must do anyway.
  std::atomic<unsigned long> owner{0};
};
// Campaign infrastructure, not guest state: executions never observe these,
// so no snapshot captures them (NYX_EXEC_EPHEMERAL, DESIGN.md §10).
NYX_EXEC_EPHEMERAL("guest_memory.region_slots");
RegionSlot g_regions[kMaxRegions];
NYX_EXEC_EPHEMERAL("guest_memory.unresolved_hook");
std::atomic<UnresolvedFaultHook> g_unresolved_hook{nullptr};

unsigned long SelfId() {
  // pthread_self is a TLS read on Linux — safe inside a signal handler.
  return reinterpret_cast<unsigned long>(pthread_self());
}

void SegvHandler(int sig, siginfo_t* info, void* ucontext) {
  const uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const unsigned long self = SelfId();
  for (auto& slot : g_regions) {
    GuestMemory* region = slot.region.load(std::memory_order_acquire);
    if (region == nullptr || slot.owner.load(std::memory_order_relaxed) != self) {
      continue;
    }
    if (region->Contains(addr) && region->HandleFault(addr)) {
      return;
    }
  }
  // Not a tracking fault. Give the execution engine a chance to turn it
  // into a detected target crash (it siglongjmps and never returns here).
  UnresolvedFaultHook hook = g_unresolved_hook.load(std::memory_order_acquire);
  if (hook != nullptr && hook()) {
    return;
  }
  // Restore the default disposition; the faulting instruction re-executes
  // and the process dies with a genuine SIGSEGV.
  signal(SIGSEGV, SIG_DFL);
}

void InstallHandlerOnce() {
  // Monotonic init-once: set on first VM construction, immutable afterwards.
  NYX_EXEC_EPHEMERAL("guest_memory.sighandler_once");
  static std::once_flag installed;
  std::call_once(installed, [] {
    struct sigaction sa = {};
    sa.sa_sigaction = SegvHandler;
    sa.sa_flags = SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGSEGV, &sa, nullptr) != 0) {
      perror("sigaction");
      abort();
    }
  });
}

void RegisterRegion(GuestMemory* gm) {
  for (auto& slot : g_regions) {
    GuestMemory* expected = nullptr;
    if (slot.region.compare_exchange_strong(expected, gm, std::memory_order_release)) {
      // The owner's own faults are ordered after this store on the same
      // thread, which is the only reader the value must be exact for.
      slot.owner.store(SelfId(), std::memory_order_release);
      return;
    }
  }
  ::nyx::internal::ContractFailure(__FILE__, __LINE__, "NYX_CHECK", "free region slot")
      << "too many live GuestMemory regions (max " << kMaxRegions << ")";
}

void UnregisterRegion(GuestMemory* gm) {
  for (auto& slot : g_regions) {
    GuestMemory* expected = gm;
    if (slot.region.compare_exchange_strong(expected, nullptr, std::memory_order_release)) {
      return;
    }
  }
}

}  // namespace

void RawProtect(void* addr, size_t len, int prot) {
  if (mprotect(addr, len, prot) != 0) {
    perror("mprotect");
    abort();
  }
}

void SetUnresolvedFaultHook(UnresolvedFaultHook hook) {
  g_unresolved_hook.store(hook, std::memory_order_release);
}

GuestMemory::GuestMemory(size_t num_pages)
    : num_pages_(num_pages),
      tracker_(num_pages),
      opened_(num_pages, 0),
      window_dirty_epochs_(num_pages, 0) {
  // One extra PROT_NONE guard page so a target running off the end of guest
  // memory faults immediately and deterministically instead of silently
  // reading whatever mapping happens to be adjacent. The guard page is never
  // part of dirty tracking, so it is protected via the raw call.
  void* p = mmap(nullptr, size_bytes() + kPageSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    perror("mmap guest memory");
    abort();
  }
  base_ = static_cast<uint8_t*>(p);
  RawProtect(base_ + size_bytes(), kPageSize, PROT_NONE);
  InstallHandlerOnce();
  RegisterRegion(this);
  // Bind the region to this thread (see thread_checker_ in the header).
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
}

GuestMemory::~GuestMemory() {
  UnregisterRegion(this);
  munmap(base_, size_bytes() + kPageSize);
}

void GuestMemory::ArmTracking() {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  tracker_.UnpinAll();
  tracker_.Clear();
  std::fill(window_dirty_epochs_.begin(), window_dirty_epochs_.end(), 0);
  window_epochs_ = 0;
  armed_ = true;
  opened_count_ = 0;
  Protect(0, num_pages_, PROT_READ);
}

void GuestMemory::DisarmTracking() {
  armed_ = false;
  Protect(0, num_pages_, PROT_READ | PROT_WRITE);
}

void GuestMemory::OpenForRestore(const uint32_t* pages, size_t n) {
  const size_t start = opened_count_;
  for (size_t i = 0; i < n; i++) {
    if (!tracker_.IsDirty(pages[i])) {
      NYX_DCHECK_LT(opened_count_, opened_.size());
      opened_[opened_count_++] = pages[i];
    }
  }
  ProtectList(opened_.data() + start, opened_count_ - start, PROT_READ | PROT_WRITE);
}

void GuestMemory::EndPinEpoch() {
  // Pin(i) swaps entry i with the first unpinned one, which this loop has
  // already visited, so every entry is counted exactly once.
  const uint32_t* stack = tracker_.stack_data();
  for (size_t i = tracker_.pinned_count(); i < tracker_.stack_size(); i++) {
    uint8_t& epochs = window_dirty_epochs_[stack[i]];
    if (epochs < kPinAfter) {
      epochs++;
    }
    if (epochs == kPinAfter && tracker_.pinned_count() < kMaxPinnedPages) {
      tracker_.Pin(i);
    }
  }
  if (++window_epochs_ < kPinWindow) {
    return;
  }
  // New window: every count restarts, and the pin set is dropped so the
  // re-arm below protects it again. A page pinned in the window that ended
  // starts one dirty epoch short of kPinAfter: if it is still hot, its next
  // write traps once and pins it again; if it went cold, it stays unpinned.
  window_epochs_ = 0;
  std::fill(window_dirty_epochs_.begin(), window_dirty_epochs_.end(), 0);
  for (uint32_t page : tracker_.dirty().first(tracker_.pinned_count())) {
    window_dirty_epochs_[page] = kPinAfter - 1;
  }
  tracker_.UnpinAll();
}

void GuestMemory::SealAfterRestore() {
  if (opened_count_ > 0) {
    ProtectList(opened_.data(), opened_count_, PROT_READ);
    opened_count_ = 0;
  }
  ReArmDirtyPages();
}

void GuestMemory::ReArmDirtyPages() {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  EndPinEpoch();
  const std::span<const uint32_t> rearm = tracker_.unpinned();
  ProtectList(rearm.data(), rearm.size(), PROT_READ);
  tracker_.Clear();
  armed_ = true;
}

bool GuestMemory::HandleFault(uintptr_t addr) {
  if (!armed_) {
    return false;
  }
  // Contains() excludes the guard page, so a resolvable fault is in range.
  const uint32_t page = PageOf(addr - reinterpret_cast<uintptr_t>(base_));
  NYX_DCHECK_LT(page, num_pages_);
  if (tracker_.IsDirty(page)) {
    // The page is already writable; this fault is a genuine bug (e.g. a
    // wild write the handler cannot resolve).
    return false;
  }
  tracker_.MarkDirty(page);
  // Re-enable writes for this single page. mprotect is async-signal-safe
  // in practice on Linux (it is a plain syscall).
  if (mprotect(base_ + static_cast<size_t>(page) * kPageSize, kPageSize,
               PROT_READ | PROT_WRITE) != 0) {
    return false;
  }
  protect_calls_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void GuestMemory::Protect(uint32_t first_page, size_t count, int prot) {
  if (count == 0) {
    return;
  }
  RawProtect(base_ + static_cast<size_t>(first_page) * kPageSize, count * kPageSize, prot);
  protect_calls_.fetch_add(1, std::memory_order_relaxed);
}

void GuestMemory::ProtectList(const uint32_t* pages, size_t n, int prot) {
  size_t i = 0;
  while (i < n) {
    const uint32_t start = pages[i];
    size_t run = 1;
    while (i + run < n && pages[i + run] == start + run) {
      run++;
    }
    Protect(start, run, prot);
    i += run;
  }
}

}  // namespace nyx
