// Virtual clock and cost model.
//
// The paper reports wall-clock throughput measured on a 52-core Xeon testbed
// running real servers inside KVM. This reproduction runs compact protocol
// re-implementations on a userspace VM, so absolute wall-clock numbers would
// be meaningless. Instead, every emulated operation (syscall, connection
// setup, VM reset, AFLNet sleep, ...) charges a calibrated number of virtual
// nanoseconds to a deterministic clock, and the benchmarks report virtual
// executions per second. The relative costs below are taken from the paper's
// own measurements and from published numbers for Linux syscall/connect
// latencies, so the *shape* of the results (who wins, by what factor) is
// driven by the same mechanics as the original evaluation.

#ifndef SRC_COMMON_VCLOCK_H_
#define SRC_COMMON_VCLOCK_H_

#include <cstdint>

namespace nyx {

// Cost constants, in virtual nanoseconds.
struct CostModel {
  // Fast emulated "syscall": a hooked libc call that never enters the kernel.
  uint64_t emulated_call_ns = 80;
  // Real syscall through the kernel (baselines using real sockets).
  uint64_t real_syscall_ns = 1200;
  // Full TCP connect + accept on loopback, including the context switches the
  // paper calls out ("usually involving dozens of context switches").
  uint64_t tcp_connect_ns = 90'000;
  // Cost of processing one byte of payload in the target (parsing work is
  // charged separately by the targets themselves).
  uint64_t per_byte_ns = 4;
  // Restoring a VM snapshot: fixed hypercall/device cost plus per-dirty-page
  // copy cost. "Nyx is able to reset the VM about 12,000 times per second"
  // => ~83us fixed for a small target.
  uint64_t snapshot_restore_fixed_ns = 55'000;
  uint64_t snapshot_page_copy_ns = 180;      // copy + mprotect re-arm per page
  uint64_t incremental_create_page_ns = 200; // CoW write per page
  uint64_t device_reset_fast_ns = 4'000;
  // Baseline (AFLNet-style) per-execution overheads.
  uint64_t process_spawn_ns = 350'000;       // fork+exec of the server
  uint64_t server_ready_poll_ns = 2'000'000; // polling until the port is open
  uint64_t aflnet_cleanup_script_ns = 1'500'000;
  uint64_t aflnet_inter_packet_gap_ns = 150'000; // recv-timeout wait per packet
  // AFL++ persistent-mode style reset used by the desock baseline.
  uint64_t forkserver_reset_ns = 450'000;
};

// Monotonic deterministic clock. One instance per campaign.
class VirtualClock {
 public:
  void Advance(uint64_t ns) { now_ns_ += ns; }
  uint64_t now_ns() const { return now_ns_; }
  void Reset() { now_ns_ = 0; }

  double now_seconds() const { return static_cast<double>(now_ns_) * 1e-9; }

 private:
  uint64_t now_ns_ = 0;
};

}  // namespace nyx

#endif  // SRC_COMMON_VCLOCK_H_
