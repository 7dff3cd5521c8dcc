#include "src/vm/dirty_backend.h"

#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#if defined(__linux__) && __has_include(<linux/userfaultfd.h>)
#include <linux/userfaultfd.h>
#if defined(UFFDIO_WRITEPROTECT) && defined(__NR_userfaultfd)
#define NYX_HAS_UFFD_WP 1
#endif
#endif

#include "src/common/check.h"
#include "src/common/env.h"
#include "src/common/log.h"
#include "src/vm/state_registry.h"

namespace nyx {
namespace {

// Fallback warnings fire once per requested mode per process, not once per
// VM: campaign workers construct thousands of VMs and the message would
// drown the log. Infrastructure flags, never guest state.
NYX_EXEC_EPHEMERAL("dirty_backend.warn_flags");
std::atomic<bool> g_warned_uffd{false};
std::atomic<bool> g_warned_softdirty{false};
NYX_EXEC_EPHEMERAL("dirty_backend.warn_unknown_name");
std::atomic<bool> g_warned_unknown{false};

// /proc/self/clear_refs resets soft-dirty bits for the *whole process*, so
// exactly one live region may own the mechanism at a time; later regions
// fall back to mprotect. Released when the owning backend is destroyed.
NYX_EXEC_EPHEMERAL("dirty_backend.softdirty_claim");
std::atomic<bool> g_softdirty_claimed{false};

// ---------------------------------------------------------------------------
// mprotect/SIGSEGV backend: the write-protection fault path GuestMemory has
// always had, moved behind the interface. Costs 2 syscalls + 1 signal per
// first write; re-arms coalesce runs of consecutive pages into one syscall.

class MprotectBackend : public DirtyBackend {
 public:
  using DirtyBackend::DirtyBackend;

  bool Attach() override { return true; }

  void Arm() override { Protect(0, num_pages_, PROT_READ); }

  void Disarm() override { Protect(0, num_pages_, PROT_READ | PROT_WRITE); }

  void OpenPages(const uint32_t* pages, size_t n) override {
    ProtectList(pages, n, PROT_READ | PROT_WRITE);
  }

  void ReArmPages(const uint32_t* pages, size_t n) override {
    ProtectList(pages, n, PROT_READ);
  }

  bool HandleFault(uintptr_t addr) override {
    const uint32_t page = PageOf(addr - reinterpret_cast<uintptr_t>(base_));
    if (tracker_->IsDirty(page)) {
      // The page is already writable; this fault is a genuine bug (e.g. a
      // wild write the handler cannot resolve).
      return false;
    }
    tracker_->MarkDirty(page);
    // Re-enable writes for this single page. mprotect is async-signal-safe
    // in practice on Linux (it is a plain syscall).
    if (mprotect(base_ + static_cast<size_t>(page) * kPageSize, kPageSize,
                 PROT_READ | PROT_WRITE) != 0) {
      return false;
    }
    protect_calls_->fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool wants_segv_handler() const override { return true; }
  TrackingMode mode() const override { return TrackingMode::kMprotect; }

 private:
  void Protect(uint32_t first_page, size_t count, int prot) {
    if (count == 0) {
      return;
    }
    if (mprotect(base_ + static_cast<size_t>(first_page) * kPageSize, count * kPageSize,
                 prot) != 0) {
      perror("mprotect");
      abort();
    }
    protect_calls_->fetch_add(1, std::memory_order_relaxed);
  }

  // Coalesces runs of consecutive pages into single mprotect calls.
  void ProtectList(const uint32_t* pages, size_t n, int prot) {
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
};

// ---------------------------------------------------------------------------
// Software backend: no protection changes at all; dirty marks come only from
// the explicit GuestMemory accessors. For tracker-logic unit tests.

class SoftwareBackend : public DirtyBackend {
 public:
  using DirtyBackend::DirtyBackend;
  bool Attach() override { return true; }
  void Arm() override {}
  void Disarm() override {}
  void ReArmPages(const uint32_t*, size_t) override {}
  TrackingMode mode() const override { return TrackingMode::kSoftware; }
};

// ---------------------------------------------------------------------------
// userfaultfd write-protect backend. Faults are delivered as messages on a
// file descriptor instead of SIGSEGV; a monitor thread reads each fault,
// appends the page to a preallocated pending buffer and removes write
// protection for that page (which wakes the blocked guest thread). The VM
// thread drains the buffer into the DirtyTracker in Sync().
//
// Synchronization: the monitor is the only writer of pending entries, the VM
// thread the only reader. An entry store followed by a release store of the
// count, paired with an acquire load in Sync(), publishes each entry. The
// two threads are additionally never *concurrently active* on the same page:
// while the monitor handles a fault, the VM thread is blocked in the kernel
// on that very write. The monitor never touches the DirtyTracker.
//
// Pages must have populated PTEs before registering: write-protect
// registration on never-written anonymous memory is silently skipped by
// kernels without UFFD_FEATURE_WP_UNPOPULATED, and the first write would
// then not fault at all. Attach() populates the whole region up front.

class UffdBackend : public DirtyBackend {
 public:
  UffdBackend(uint8_t* base, size_t num_pages, DirtyTracker* tracker,
              std::atomic<uint64_t>* protect_calls)
      : DirtyBackend(base, num_pages, tracker, protect_calls), pending_(num_pages, 0) {}

  ~UffdBackend() override {
    if (monitor_.joinable()) {
      const char stop = 1;
      (void)!write(stop_pipe_[1], &stop, 1);
      monitor_.join();
    }
    for (int fd : {stop_pipe_[0], stop_pipe_[1], uffd_}) {
      if (fd >= 0) {
        close(fd);
      }
    }
  }

#ifndef NYX_HAS_UFFD_WP
  bool Attach() override { return false; }
  void Arm() override {}
  void Disarm() override {}
  void ReArmPages(const uint32_t*, size_t) override {}
#else
  bool Attach() override {
    long fd = -1;
#ifdef UFFD_USER_MODE_ONLY
    fd = syscall(__NR_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY);
#endif
    if (fd < 0) {
      fd = syscall(__NR_userfaultfd, O_CLOEXEC | O_NONBLOCK);
    }
    if (fd < 0) {
      return false;
    }
    uffd_ = static_cast<int>(fd);

    struct uffdio_api api = {};
    api.api = UFFD_API;
#ifdef UFFD_FEATURE_PAGEFAULT_FLAG_WP
    api.features = UFFD_FEATURE_PAGEFAULT_FLAG_WP;
#endif
    if (ioctl(uffd_, UFFDIO_API, &api) != 0) {
      return false;
    }

    // Populate every PTE before registering (see class comment). Content is
    // preserved: pages are still all-writable at attach time.
    Populate();

    struct uffdio_register reg = {};
    reg.range.start = reinterpret_cast<unsigned long long>(base_);
    reg.range.len = num_pages_ * kPageSize;
    reg.mode = UFFDIO_REGISTER_MODE_WP;
    if (ioctl(uffd_, UFFDIO_REGISTER, &reg) != 0) {
      return false;
    }
    if ((reg.ioctls & (1ULL << _UFFDIO_WRITEPROTECT)) == 0) {
      return false;  // kernel registered the range but cannot WP it
    }

    if (pipe(stop_pipe_) != 0) {
      return false;
    }
    monitor_ = std::thread([this] { MonitorLoop(); });
    return true;
  }

  void Arm() override {
    ResetPending();
    WriteProtect(0, num_pages_, true);
  }

  void Disarm() override {
    WriteProtect(0, num_pages_, false);
    ResetPending();
  }

  void OpenPages(const uint32_t* pages, size_t n) override {
    ProtectList(pages, n, false);
  }

  void ReArmPages(const uint32_t* pages, size_t n) override {
    ProtectList(pages, n, true);
    // Pages the monitor un-protected but the VM thread never drained (none,
    // when the Sync() contract is followed) must not stay writable.
    const size_t count = pending_count_.load(std::memory_order_acquire);
    for (size_t i = drained_; i < count; i++) {
      WriteProtect(pending_[i], 1, true);
    }
    ResetPending();
  }
#endif  // NYX_HAS_UFFD_WP

  void Sync() override {
    const size_t count = pending_count_.load(std::memory_order_acquire);
    for (size_t i = drained_; i < count; i++) {
      tracker_->MarkDirty(pending_[i]);
    }
    drained_ = count;
  }

  bool needs_sync() const override { return true; }
  TrackingMode mode() const override { return TrackingMode::kUffd; }

 private:
#ifdef NYX_HAS_UFFD_WP
  void WriteProtect(uint32_t first_page, size_t count, bool protect) {
    if (count == 0) {
      return;
    }
    struct uffdio_writeprotect wp = {};
    wp.range.start =
        reinterpret_cast<unsigned long long>(base_ + static_cast<size_t>(first_page) * kPageSize);
    wp.range.len = count * kPageSize;
    wp.mode = protect ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
    if (ioctl(uffd_, UFFDIO_WRITEPROTECT, &wp) != 0) {
      perror("uffd writeprotect");
      abort();
    }
    protect_calls_->fetch_add(1, std::memory_order_relaxed);
  }

  void ProtectList(const uint32_t* pages, size_t n, bool protect) {
    size_t i = 0;
    while (i < n) {
      const uint32_t start = pages[i];
      size_t run = 1;
      while (i + run < n && pages[i + run] == start + run) {
        run++;
      }
      WriteProtect(start, run, protect);
      i += run;
    }
  }

  void Populate() {
#ifdef MADV_POPULATE_WRITE
    if (madvise(base_, num_pages_ * kPageSize, MADV_POPULATE_WRITE) == 0) {
      return;
    }
#endif
    // Fallback: touch every page with a value-preserving store.
    volatile uint8_t* p = base_;
    for (size_t i = 0; i < num_pages_; i++) {
      p[i * kPageSize] = p[i * kPageSize];
    }
  }

  void MonitorLoop() {
    struct pollfd fds[2] = {{uffd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    for (;;) {
      if (poll(fds, 2, -1) < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;
      }
      if (fds[1].revents != 0) {
        return;
      }
      if ((fds[0].revents & POLLIN) == 0) {
        continue;
      }
      struct uffd_msg msg;
      const ssize_t r = read(uffd_, &msg, sizeof(msg));
      if (r != static_cast<ssize_t>(sizeof(msg)) || msg.event != UFFD_EVENT_PAGEFAULT) {
        continue;
      }
      const uintptr_t addr = static_cast<uintptr_t>(msg.arg.pagefault.address);
      const uint32_t page = PageOf(addr - reinterpret_cast<uintptr_t>(base_));
      // Publish the page before waking the faulting thread: entry store,
      // then release bump of the count Sync() acquires.
      const size_t n = pending_count_.load(std::memory_order_relaxed);
      if (n < pending_.size()) {
        pending_[n] = page;
        pending_count_.store(n + 1, std::memory_order_release);
      }
      // Remove write protection for the one page; this unblocks the writer.
      struct uffdio_writeprotect wp = {};
      wp.range.start = addr & ~static_cast<uintptr_t>(kPageSize - 1);
      wp.range.len = kPageSize;
      wp.mode = 0;
      ioctl(uffd_, UFFDIO_WRITEPROTECT, &wp);
    }
  }
#endif  // NYX_HAS_UFFD_WP

  void ResetPending() {
    drained_ = 0;
    pending_count_.store(0, std::memory_order_release);
  }

  int uffd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::thread monitor_;
  // Faulted pages this arming period, monitor-written, VM-thread-drained.
  std::vector<uint32_t> pending_;
  std::atomic<size_t> pending_count_{0};
  size_t drained_ = 0;  // VM thread only
};

// ---------------------------------------------------------------------------
// Soft-dirty backend: zero per-write cost. The kernel sets a "soft dirty"
// bit in each PTE on first write after a clear; Sync() reads the bits back
// from /proc/self/pagemap (bit 55 of each 8-byte entry) and ReArm resets
// them by writing "4" to /proc/self/clear_refs. Writes never fault and
// pages stay read-write the whole time — the trade is an O(#pages) pagemap
// scan per sync against the per-page fault machinery of the other backends.

class SoftDirtyBackend : public DirtyBackend {
 public:
  SoftDirtyBackend(uint8_t* base, size_t num_pages, DirtyTracker* tracker,
                   std::atomic<uint64_t>* protect_calls)
      : DirtyBackend(base, num_pages, tracker, protect_calls),
        buf_(num_pages < kChunkEntries ? num_pages : kChunkEntries) {}

  ~SoftDirtyBackend() override {
    if (clear_fd_ >= 0) {
      close(clear_fd_);
    }
    if (claimed_) {
      g_softdirty_claimed.store(false, std::memory_order_release);
    }
  }

  bool Attach() override {
    bool expected = false;
    if (!g_softdirty_claimed.compare_exchange_strong(expected, true,
                                                     std::memory_order_acq_rel)) {
      return false;  // another live region owns the process-wide mechanism
    }
    claimed_ = true;
    clear_fd_ = open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
    if (clear_fd_ < 0 || !pagemap_.ok()) {
      return false;
    }
    // Functional probe: with CONFIG_MEM_SOFT_DIRTY compiled out the files
    // exist and the writes succeed, but bit 55 never sets. Clear, perform a
    // value-preserving store, and require the bit to appear.
    ClearRefs();
    volatile uint8_t* p = base_;
    p[0] = p[0];
    return PageSoftDirty(0);
  }

  void Arm() override {
    ClearRefs();
    armed_ = true;
  }

  void Disarm() override { armed_ = false; }

  // Pages are always writable; restores need no opening. Re-arming resets
  // the process-wide bits wholesale — per-page selectivity is impossible,
  // which is exactly why callers must Sync() before any reset.
  void ReArmPages(const uint32_t*, size_t) override { ClearRefs(); }

  void Sync() override {
    if (!armed_) {
      return;
    }
    for (size_t start = 0; start < num_pages_; start += buf_.size()) {
      const size_t count = num_pages_ - start < buf_.size() ? num_pages_ - start : buf_.size();
      NYX_CHECK(pagemap_.Read(base_ + start * kPageSize, count, buf_.data()))
          << "pagemap read failed";
      for (size_t i = 0; i < count; i++) {
        if ((buf_[i] >> Pagemap::kSoftDirtyBit) & 1) {
          tracker_->MarkDirty(static_cast<uint32_t>(start + i));
        }
      }
    }
  }

  bool needs_sync() const override { return true; }
  TrackingMode mode() const override { return TrackingMode::kSoftDirty; }

 private:
  static constexpr size_t kChunkEntries = 1024;

  void ClearRefs() {
    NYX_CHECK(pwrite(clear_fd_, "4", 1, 0) == 1) << "clear_refs write failed";
    protect_calls_->fetch_add(1, std::memory_order_relaxed);
  }

  bool PageSoftDirty(uint32_t page) {
    uint64_t entry = 0;
    return pagemap_.Read(base_ + static_cast<size_t>(page) * kPageSize, 1, &entry) &&
           ((entry >> Pagemap::kSoftDirtyBit) & 1) != 0;
  }

  Pagemap pagemap_;
  int clear_fd_ = -1;
  bool claimed_ = false;
  bool armed_ = false;
  std::vector<uint64_t> buf_;
};

std::unique_ptr<DirtyBackend> MakeBackend(TrackingMode mode, uint8_t* base, size_t num_pages,
                                          DirtyTracker* tracker,
                                          std::atomic<uint64_t>* protect_calls) {
  switch (mode) {
    case TrackingMode::kSoftware:
      return std::make_unique<SoftwareBackend>(base, num_pages, tracker, protect_calls);
    case TrackingMode::kUffd:
      return std::make_unique<UffdBackend>(base, num_pages, tracker, protect_calls);
    case TrackingMode::kSoftDirty:
      return std::make_unique<SoftDirtyBackend>(base, num_pages, tracker, protect_calls);
    case TrackingMode::kMprotect:
      break;
  }
  return std::make_unique<MprotectBackend>(base, num_pages, tracker, protect_calls);
}

void WarnFallbackOnce(TrackingMode requested) {
  std::atomic<bool>& flag =
      requested == TrackingMode::kUffd ? g_warned_uffd : g_warned_softdirty;
  if (!flag.exchange(true, std::memory_order_acq_rel)) {
    NYX_LOG_WARN << "dirty-tracking backend '" << TrackingModeName(requested)
                 << "' unavailable on this kernel; falling back to mprotect "
                    "(DESIGN.md §12)";
  }
}

}  // namespace

const char* TrackingModeName(TrackingMode mode) {
  switch (mode) {
    case TrackingMode::kMprotect:
      return "mprotect";
    case TrackingMode::kSoftware:
      return "software";
    case TrackingMode::kUffd:
      return "uffd";
    case TrackingMode::kSoftDirty:
      return "softdirty";
  }
  return "unknown";
}

TrackingMode TrackingModeFromName(const std::string& name, TrackingMode def) {
  if (name.empty()) {
    return def;
  }
  for (TrackingMode mode : {TrackingMode::kMprotect, TrackingMode::kSoftware, TrackingMode::kUffd,
                            TrackingMode::kSoftDirty}) {
    if (name == TrackingModeName(mode)) {
      return mode;
    }
  }
  if (!g_warned_unknown.exchange(true, std::memory_order_acq_rel)) {
    NYX_LOG_WARN << "unknown NYX_TRACKER value '" << name << "'; using "
                 << TrackingModeName(def);
  }
  return def;
}

TrackingMode TrackingModeFromEnv(TrackingMode def) {
  const TrackingMode mode = TrackingModeFromName(env::Tracker(), def);
  NYX_CHECK(mode != TrackingMode::kSoftware)
      << "NYX_TRACKER=software: software tracking never sees a target's direct "
         "stores, so restores would leave them in place; use mprotect, uffd or softdirty";
  return mode;
}

void RawProtect(void* addr, size_t len, int prot) {
  if (mprotect(addr, len, prot) != 0) {
    perror("mprotect");
    abort();
  }
}

Pagemap::Pagemap() : fd_(open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC)) {}

Pagemap::~Pagemap() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

bool Pagemap::Read(const void* addr, size_t count, uint64_t* out) const {
  if (fd_ < 0) {
    return false;
  }
  auto* dst = reinterpret_cast<uint8_t*>(out);
  size_t want = count * sizeof(uint64_t);
  off_t off = static_cast<off_t>(reinterpret_cast<uintptr_t>(addr) / kPageSize * sizeof(uint64_t));
  while (want > 0) {
    const ssize_t got = pread(fd_, dst, want, off);
    if (got <= 0) {
      return false;
    }
    dst += got;
    want -= static_cast<size_t>(got);
    off += got;
  }
  return true;
}

std::unique_ptr<DirtyBackend> CreateDirtyBackend(TrackingMode requested, uint8_t* base,
                                                 size_t num_pages, DirtyTracker* tracker,
                                                 std::atomic<uint64_t>* protect_calls,
                                                 TrackingMode* effective) {
  std::unique_ptr<DirtyBackend> backend =
      MakeBackend(requested, base, num_pages, tracker, protect_calls);
  if (backend->Attach()) {
    *effective = requested;
    return backend;
  }
  WarnFallbackOnce(requested);
  backend = MakeBackend(TrackingMode::kMprotect, base, num_pages, tracker, protect_calls);
  NYX_CHECK(backend->Attach());
  *effective = TrackingMode::kMprotect;
  return backend;
}

bool TrackingModeAvailable(TrackingMode mode) {
  if (mode == TrackingMode::kMprotect || mode == TrackingMode::kSoftware) {
    return true;
  }
  // Probe with a scratch region; the backend is destroyed (and any
  // exclusivity claim released) before returning.
  constexpr size_t kProbePages = 4;
  void* p = mmap(nullptr, kProbePages * kPageSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    return false;
  }
  DirtyTracker tracker(kProbePages);
  std::atomic<uint64_t> protect_calls{0};
  const bool ok =
      MakeBackend(mode, static_cast<uint8_t*>(p), kProbePages, &tracker, &protect_calls)
          ->Attach();
  munmap(p, kProbePages * kPageSize);
  return ok;
}

}  // namespace nyx
