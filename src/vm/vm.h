// The userspace virtual machine: guest memory + emulated devices + block
// device, with Nyx-style root and incremental snapshots.
//
// The Nyx-Net contract (Figure 3) is exactly one root snapshot and at most
// one incremental snapshot: "Creating incremental snapshots is so cheap that
// storing them would waste space and time" — the incremental is recreated on
// demand and dropped whenever a different input is scheduled.
//
// Invariants (DESIGN.md §12):
//  * memory = root + the incremental's delta (while inc_base_live_) +
//    tracker dirt
//  * dropping the incremental never cleans memory: its delta stays live, so
//    the next root restore reverts it along with the dirt
//  * a restored page comes from the incremental when its delta holds the
//    page, otherwise from the root
//
// Host-side state that is logically part of the guest (the emulated
// kernel's socket table, the interpreter's position) is not the VM's
// business: the engine keeps its own copies beside these snapshots.

#ifndef SRC_VM_VM_H_
#define SRC_VM_VM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/vclock.h"
#include "src/vm/block_device.h"
#include "src/vm/device_state.h"
#include "src/vm/guest_memory.h"
#include "src/vm/snapshot.h"

namespace nyx {

struct VmConfig {
  size_t mem_pages = 1024;     // 4 MiB default guest RAM
  size_t disk_sectors = 2048;  // 1 MiB default disk
};

struct VmStats {
  uint64_t root_restores = 0;
  uint64_t incremental_restores = 0;
  uint64_t incremental_creates = 0;
  // Always 0: there is no snapshot deeper than the incremental. Kept
  // because the wall-clock benchmark runner still reports it.
  uint64_t deep_restores = 0;
  uint64_t pages_restored = 0;
  uint64_t pages_captured = 0;
};

class Vm {
 public:
  explicit Vm(const VmConfig& config);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  GuestMemory& mem() { return mem_; }
  DeviceState& devices() { return devices_; }
  BlockDevice& disk() { return disk_; }
  const VmConfig& config() const { return config_; }

  // Attaches a virtual clock; all snapshot operations then charge their cost.
  void AttachClock(VirtualClock* clock, const CostModel* cost) {
    clock_ = clock;
    cost_ = cost;
  }

  // Root snapshot ----------------------------------------------------------

  // Captures the root snapshot of the current state and arms dirty tracking.
  void TakeRootSnapshot();
  bool has_root() const { return root_ != nullptr; }
  const RootSnapshot& root() const { return *root_; }

  // Resets memory, devices and disk to the root snapshot and invalidates the
  // incremental snapshot (the scheduled input changed). Cost is proportional
  // to the number of pages that differ.
  void RestoreRoot();

  // Incremental snapshot ---------------------------------------------------

  // Captures the second-level snapshot. Must be at the root state: after
  // TakeRootSnapshot or RestoreRoot, with no incremental created since.
  void CreateIncremental();
  bool has_incremental() const { return inc_ != nullptr && inc_->valid(); }
  const IncrementalSnapshot& incremental() const { return *inc_; }
  // Reverts the current dirt to the incremental snapshot's content.
  void RestoreIncremental();
  // Invalidates the incremental snapshot. Memory is untouched: the next
  // root restore still reverts the pages it captured.
  void DropIncremental();

  // Always empty: no host state rides inside the snapshots. Kept because
  // the wall-clock benchmark runner still reports its size.
  Bytes current_aux() const { return {}; }

  const VmStats& stats() const { return stats_; }

 private:
  // Copies snapshot content back into every dirty page and every page of
  // `delta`, re-arms tracking, and counts and charges the copies. A page
  // comes from `inc` when its delta holds it, otherwise from the root.
  void RestorePages(std::span<const uint32_t> delta, const IncrementalSnapshot* inc);
  void RestoreDevices(const DeviceState& saved);
  void Charge(uint64_t ns) {
    if (clock_ != nullptr) {
      clock_->Advance(ns);
    }
  }

  VmConfig config_;
  GuestMemory mem_;
  DeviceState devices_;
  BlockDevice disk_;

  std::unique_ptr<RootSnapshot> root_;
  // Created on first use and kept across drops, so its mirror and its delta
  // stay reusable (a new root snapshot replaces it).
  std::unique_ptr<IncrementalSnapshot> inc_;
  // True while memory may hold the incremental's delta: from its creation
  // until the next root restore, across a drop. The delta pages left the
  // dirty tracker when the capture re-armed it.
  bool inc_base_live_ = false;
  // Preallocated scratch for RestorePages: dedup bitmap + revert page list.
  std::vector<uint8_t> visited_;
  std::vector<uint32_t> revert_;

  VmStats stats_;
  VirtualClock* clock_ = nullptr;
  const CostModel* cost_ = nullptr;
};

}  // namespace nyx

#endif  // SRC_VM_VM_H_
