// Guest execution context and the target-program contract.
//
// Targets in this reproduction play the role of the real servers running
// inside Nyx-Net's VM. The contract that makes whole-VM snapshots work:
//
//   * ALL mutable target state lives in guest memory (ctx.State<T>() /
//     ctx.Malloc()), never in the C++ object. A snapshot restore therefore
//     restores the target exactly, including half-parsed requests, session
//     state, forked-child bookkeeping and heap contents.
//   * All I/O goes through the emulated network (ctx.net()) and the emulated
//     block device (ctx.disk()).
//   * Control flow is an explicit state machine: Step() drains whatever
//     input is available and returns when it would block.
//   * Branch decisions call ctx.Cov(site) — the compile-time
//     instrumentation analogue.
//
// The context also provides a tiny guest-heap allocator with ASan-style
// redzone checking, so memory-corruption bugs behave like the real thing:
// with "ASan" enabled an out-of-bounds heap write aborts immediately; without
// it the write silently corrupts the neighbouring allocation header and the
// crash happens later, if ever (exactly the dcmtk footnote of Table 1).

#ifndef SRC_FUZZ_GUEST_H_
#define SRC_FUZZ_GUEST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/common/vclock.h"
#include "src/fuzz/coverage.h"
#include "src/netemu/netemu.h"
#include "src/spec/pcap.h"
#include "src/vm/vm.h"

namespace nyx {

// Guest-physical layout.
inline constexpr uint64_t kStateBase = 1 * kPageSize;    // fixed target state
inline constexpr uint64_t kHeapBase = 16 * kPageSize;    // guest heap
inline constexpr uint64_t kScratchBase = 96 * kPageSize; // config/cache area
// Smallest guest the layout fits: the heap's header page at kHeapBase is
// read and written unchecked. The scratch area is optional (TouchScratch
// skips pages past the end).
inline constexpr uint64_t kMinGuestPages = kHeapBase / kPageSize + 1;
// Largest guest: 4 GiB, the largest guest in the paper's Fig. 6. Guest page
// numbers are uint32_t (DirtyTracker), and the VM zero-fills host arrays of
// about 15 bytes per guest page at construction.
inline constexpr uint64_t kMaxGuestPages = uint64_t{1} << 20;

struct CrashInfo {
  bool crashed = false;
  uint32_t crash_id = 0;
  std::string kind;
};

class GuestContext {
 public:
  GuestContext(Vm& vm, NetEmu& net, CoverageMap& cov, VirtualClock& clock, const CostModel& cost);

  // --- memory ---
  template <typename T>
  T* State() {
    static_assert(std::is_trivially_copyable_v<T>, "guest state must be snapshot-safe");
    return vm_.mem().At<T>(kStateBase);
  }
  GuestMemory& mem() { return vm_.mem(); }
  BlockDevice& disk() { return vm_.disk(); }
  NetEmu& net() { return net_; }

  // Dirties `pages` pages in the scratch area (config caches, session
  // buffers) so snapshot-reset costs scale realistically.
  void TouchScratch(uint32_t pages, uint8_t value) {
    for (uint32_t p = 0; p < pages; p++) {
      const uint64_t off = kScratchBase + static_cast<uint64_t>(p) * kPageSize;
      if (off < vm_.mem().size_bytes()) {
        vm_.mem().base()[off] = value;
      }
    }
  }

  // --- guest heap with redzones ---
  // Returns a guest offset, or 0 on exhaustion.
  uint64_t Malloc(uint32_t size);
  void Free(uint64_t addr);
  // Bounds-checked heap write: with ASan an overflow crashes immediately;
  // without, it writes through (possibly smashing the next header).
  void HeapWrite(uint64_t addr, uint32_t offset, const void* src, uint32_t len);
  // Bounds-checked heap read; an overflowing read crashes only under ASan.
  void HeapRead(uint64_t addr, uint32_t offset, void* dst, uint32_t len);
  uint32_t HeapSizeOf(uint64_t addr);
  bool asan() const { return asan_; }
  void set_asan(bool on) { asan_ = on; }

  // --- coverage / feedback ---
  void Cov(uint32_t site) { cov_.OnSite(site); }
  // Covers `site + (taken ? 1 : 0)` and returns the condition, so targets can
  // instrument branches inline: if (ctx.CovBranch(n > 5, kSiteFoo)) {...}
  bool CovBranch(bool taken, uint32_t site) {
    Cov(site + (taken ? 1u : 0u));
    return taken;
  }
  // IJON-style maximization feedback (used by the Mario experiment).
  void IjonMax(uint32_t slot, uint64_t value);
  uint64_t IjonValue(uint32_t slot) const;
  void ResetIjon() {
    for (auto& v : ijon_) {
      v = 0;
    }
  }

  // --- crash reporting ---
  void Crash(uint32_t crash_id, std::string kind);
  const CrashInfo& crash() const { return crash_; }
  void ClearCrash() { crash_ = CrashInfo{}; }

  // --- time ---
  void Charge(uint64_t ns) { clock_.Advance(ns); }
  const CostModel& cost() const { return cost_; }
  VirtualClock& clock() { return clock_; }

  // Deterministic randomness for targets that need it (dcmtk draws its heap
  // layout gap in Init). The engine seeds it from the campaign seed at boot
  // and again before every execution, so every execution draws the same
  // sequence whatever its input.
  Rng& rng() { return rng_; }
  void ReseedRng(uint64_t seed) { rng_.Seed(seed); }

 private:
  struct AllocHeader;  // lives in guest memory

  Vm& vm_;
  NetEmu& net_;
  CoverageMap& cov_;
  VirtualClock& clock_;
  const CostModel& cost_;
  CrashInfo crash_;
  bool asan_ = false;
  Rng rng_{1};
  static constexpr size_t kIjonSlots = 8;
  uint64_t ijon_[kIjonSlots] = {};
};

// Static description of a fuzz target.
struct TargetInfo {
  std::string name;
  uint16_t port = 0;
  SockKind transport = SockKind::kStream;
  SplitStrategy split = SplitStrategy::kCrlf;
  // The desock baseline can only handle targets that read a single stream
  // from one implicit connection; targets needing accept loops over multiple
  // connections or UDP datagram semantics make it fail ("n/a" in Tables 1-3).
  bool desock_compatible = true;
  // Virtual-time cost of process startup (config parsing, cache warmup,
  // listener setup). Nyx-style fuzzers pay it once before the root snapshot;
  // restart-per-exec baselines pay it on every execution. Calibrated per
  // target so Table 3's throughput shape reproduces.
  uint64_t startup_ns = 10'000'000;
  // Virtual-time cost of handling one protocol message (parsing, session
  // logic, syscalls the compact reimplementation doesn't perform).
  uint64_t request_ns = 100'000;
  // Extra per-execution cost only AFLNet-style fuzzing incurs: fixed
  // readiness sleeps and the user-written cleanup script.
  uint64_t aflnet_extra_ns = 100'000'000;
  // Pages of config/cache state Init dirties beyond the fixed state struct.
  uint32_t startup_dirty_pages = 4;
  // Client targets Connect() out instead of accepting.
  bool is_client = false;
  // Size of the target's fixed state struct at kStateBase (sizeof(State)).
  // The engine names it as a guest region for the divergence auditor, so a
  // diverging page is attributed to this target's state rather than
  // "somewhere in RAM". 0 = undeclared; the whole state window is
  // attributed to the target.
  size_t state_bytes = 0;
};

class Target {
 public:
  virtual ~Target() = default;

  virtual TargetInfo info() const = 0;

  // One-time startup inside the VM, before the root snapshot: allocate state,
  // parse config, open listeners, print banners. Must leave the target
  // blocked waiting for input.
  virtual void Init(GuestContext& ctx) = 0;

  // Drains all currently-available input, then returns. Called by the engine
  // after each delivered packet/connection.
  virtual void Step(GuestContext& ctx) = 0;
};

using TargetFactory = std::function<std::unique_ptr<Target>()>;

// Crash id reported when a target faults outside guest memory (a wild
// read/write the emulation cannot resolve) — the analogue of the guest
// kernel delivering SIGSEGV to the server process.
inline constexpr uint32_t kCrashWildSegv = 0x5e97f417;

// Runs target.Step(ctx) with a fault guard: an unresolvable SIGSEGV raised
// by the target is converted into a kCrashWildSegv crash on `ctx` instead of
// killing the fuzzer. Returns false if a fault was caught.
bool GuardedStep(Target& target, GuestContext& ctx);

// True when the calling thread's fault guard is disarmed — the invariant
// the audited engine checks between executions (the guard must never leak
// an armed jump buffer across an exec boundary; a failure is reported as
// the "guest.fault_jmp" ephemeral).
bool FaultGuardIdle();

}  // namespace nyx

#endif  // SRC_FUZZ_GUEST_H_
