#include "src/fuzz/guest.h"

#include <pthread.h>
#include <setjmp.h>

#include <csignal>
#include <cstring>

#include "src/common/telemetry.h"
#include "src/vm/state_registry.h"

namespace nyx {

namespace {
constexpr uint32_t kAllocMagic = 0x51eafc0d;
}  // namespace

// Heap layout, all inside guest memory so snapshots capture it:
//   kHeapBase: HeapMeta { brk }
//   then per allocation: AllocHeader | payload | 8-byte redzone
struct GuestContext::AllocHeader {
  uint32_t magic;
  uint32_t size;
};

namespace {
struct HeapMeta {
  uint64_t brk;  // next free guest offset; 0 = uninitialized
};
constexpr uint64_t kHeapMetaSize = sizeof(HeapMeta);
constexpr uint32_t kRedzoneSize = 8;
}  // namespace

GuestContext::GuestContext(Vm& vm, NetEmu& net, CoverageMap& cov, VirtualClock& clock,
                           const CostModel& cost)
    : vm_(vm), net_(net), cov_(cov), clock_(clock), cost_(cost) {}

uint64_t GuestContext::Malloc(uint32_t size) {
  auto* meta = vm_.mem().At<HeapMeta>(kHeapBase);
  if (meta->brk == 0) {
    meta->brk = kHeapBase + kHeapMetaSize;
  }
  const uint64_t header_at = (meta->brk + 7) & ~7ull;
  const uint64_t payload_at = header_at + sizeof(AllocHeader);
  const uint64_t end = payload_at + size + kRedzoneSize;
  if (end > vm_.mem().size_bytes()) {
    return 0;
  }
  auto* hdr = vm_.mem().At<AllocHeader>(header_at);
  hdr->magic = kAllocMagic;
  hdr->size = size;
  uint8_t* redzone = vm_.mem().base() + payload_at + size;
  memset(redzone, 0xa5, kRedzoneSize);
  meta->brk = end;
  Charge(cost_.per_byte_ns * 8);
  return payload_at;
}

void GuestContext::Free(uint64_t addr) {
  if (addr < kHeapBase + kHeapMetaSize + sizeof(AllocHeader) ||
      addr >= vm_.mem().size_bytes()) {
    Crash(0xfee11bad, "invalid-free");
    return;
  }
  auto* hdr = vm_.mem().At<AllocHeader>(addr - sizeof(AllocHeader));
  if (hdr->magic != kAllocMagic) {
    // The header was smashed by an earlier out-of-bounds write; glibc would
    // abort here with heap corruption.
    Crash(0xc0de0001, "heap-corruption-on-free");
    return;
  }
  hdr->magic = 0;
}

uint32_t GuestContext::HeapSizeOf(uint64_t addr) {
  auto* hdr = vm_.mem().At<AllocHeader>(addr - sizeof(AllocHeader));
  return hdr->magic == kAllocMagic ? hdr->size : 0;
}

void GuestContext::HeapWrite(uint64_t addr, uint32_t offset, const void* src, uint32_t len) {
  auto* hdr = vm_.mem().At<AllocHeader>(addr - sizeof(AllocHeader));
  const bool oob =
      hdr->magic != kAllocMagic || static_cast<uint64_t>(offset) + len > hdr->size;
  if (oob && asan_) {
    Crash(0xa5a50001, "asan-heap-buffer-overflow-write");
    return;
  }
  if (addr + offset + len > vm_.mem().size_bytes()) {
    Crash(0x5e9f0001, "wild-write-segv");
    return;
  }
  // Without ASan the write goes through — possibly into the redzone and the
  // next allocation's header. The corruption is latent until Free() trips it.
  memcpy(vm_.mem().base() + addr + offset, src, len);
  Charge(cost_.per_byte_ns * len);
}

void GuestContext::HeapRead(uint64_t addr, uint32_t offset, void* dst, uint32_t len) {
  auto* hdr = vm_.mem().At<AllocHeader>(addr - sizeof(AllocHeader));
  const bool oob =
      hdr->magic != kAllocMagic || static_cast<uint64_t>(offset) + len > hdr->size;
  if (oob && asan_) {
    Crash(0xa5a50002, "asan-heap-buffer-overflow-read");
    return;
  }
  if (addr + offset + len > vm_.mem().size_bytes()) {
    Crash(0x5e9f0002, "wild-read-segv");
    return;
  }
  memcpy(dst, vm_.mem().base() + addr + offset, len);
  Charge(cost_.per_byte_ns * len);
}

void GuestContext::IjonMax(uint32_t slot, uint64_t value) {
  if (slot < kIjonSlots && value > ijon_[slot]) {
    ijon_[slot] = value;
  }
}

uint64_t GuestContext::IjonValue(uint32_t slot) const {
  return slot < kIjonSlots ? ijon_[slot] : 0;
}

namespace {

// Fault-guard state, per worker thread: each parallel campaign guards its
// own Step() calls, and SIGSEGV is delivered on the faulting thread, so
// thread_local state routes every fault back to the guard that armed it.
// The flag is sig_atomic_t because it is read from the SIGSEGV handler.
// Re-armed around every Step, never captured by a snapshot; FaultGuardIdle
// is the registry's verify hook for the invariant.
NYX_EXEC_EPHEMERAL("guest.fault_jmp");
thread_local sigjmp_buf t_step_jmp;
NYX_EXEC_EPHEMERAL("guest.fault_armed");
thread_local volatile std::sig_atomic_t t_step_armed = 0;

bool OnUnresolvedFault() {
  if (t_step_armed == 0) {
    return false;  // fault outside a guarded Step: genuinely fatal
  }
  t_step_armed = 0;
  // GuardedStep's sigsetjmp does not save the signal mask (that would cost
  // an rt_sigprocmask per Step), so leaving the handler by siglongjmp keeps
  // SIGSEGV blocked. Unblock it here, or the next fault on this thread, a
  // dirty-tracking trap included, would kill the process.
  sigset_t segv;
  sigemptyset(&segv);
  sigaddset(&segv, SIGSEGV);
  pthread_sigmask(SIG_UNBLOCK, &segv, nullptr);
  siglongjmp(t_step_jmp, 1);
}

struct HookInstaller {
  HookInstaller() { SetUnresolvedFaultHook(&OnUnresolvedFault); }
};

}  // namespace

bool FaultGuardIdle() { return t_step_armed == 0; }

bool GuardedStep(Target& target, GuestContext& ctx) {
  // Monotonic init-once state: set on first use, immutable afterwards, so it
  // can never diverge across executions.
  NYX_EXEC_EPHEMERAL("guest.fault_hook_installer");
  static HookInstaller installer;
  // Constructed before sigsetjmp on purpose: the crash path siglongjmps back
  // into this frame, and a scope opened after the setjmp would be jumped
  // over without its destructor, leaking a phase-stack frame.
  telemetry::ScopedPhase phase(telemetry::Phase::kGuestRun);
  // savemask 0: the crash path restores the mask itself (OnUnresolvedFault).
  if (sigsetjmp(t_step_jmp, 0) != 0) {
    // Landed here from the SIGSEGV handler: the target walked off the map.
    ctx.Crash(kCrashWildSegv, "segv-wild-access");
    return false;
  }
  t_step_armed = 1;
  target.Step(ctx);
  t_step_armed = 0;
  return true;
}

void GuestContext::Crash(uint32_t crash_id, std::string kind) {
  if (crash_.crashed) {
    return;  // first crash wins
  }
  crash_.crashed = true;
  crash_.crash_id = crash_id;
  crash_.kind = std::move(kind);
}

}  // namespace nyx
