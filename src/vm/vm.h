// The userspace virtual machine: guest memory + emulated devices + block
// device, with Nyx-style root snapshot and a depth-k incremental snapshot
// tree.
//
// The classic Nyx-Net contract (Figure 3) is exactly one root snapshot and
// at most one incremental snapshot: "Creating incremental snapshots is so
// cheap that storing them would waste space and time" — the incremental is
// recreated on demand and dropped whenever a different input is scheduled.
// That remains the default (snapshot_depth = 1). Following Agamotto's
// observation that checkpoint *trees* amortize restore cost across related
// states, the pair generalizes to a linear path of up to `snapshot_depth`
// incremental snapshots: slot d stores the pages dirtied since slot d-1
// (slot 0 being the root). Restoring to an ancestor — or a still-valid
// descendant — reverts only the unshared suffix of deltas plus current
// dirt, so long message sequences stop paying full restore cost per packet.
//
// Tree invariants (DESIGN.md §12):
//  * memory = root + deltas of slots 1..cur_depth + tracker dirt
//  * valid slots form a contiguous prefix 1..max_valid_depth
//  * invalidation never cleans guest memory: deltas of invalidated slots
//    are retained and still reverted by later restores (the generalization
//    of the old inc_base_live_ fix)
//  * page content at depth d = deepest slot e <= d with has_page(p),
//    falling back to the root
//
// An opaque auxiliary blob rides along with each snapshot. The execution
// engine uses it to store host-side state that is logically part of the
// guest (the emulated kernel's fd table and the input-stream position), so a
// restore brings back *all* state, exactly like a whole-VM snapshot would.

#ifndef SRC_VM_VM_H_
#define SRC_VM_VM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/env.h"
#include "src/common/vclock.h"
#include "src/vm/block_device.h"
#include "src/vm/device_state.h"
#include "src/vm/guest_memory.h"
#include "src/vm/snapshot.h"

namespace nyx {

struct VmConfig {
  size_t mem_pages = 1024;     // 4 MiB default guest RAM
  size_t disk_sectors = 2048;  // 1 MiB default disk
  bool fast_device_reset = true;  // false = QEMU-style serialize/deserialize
  // Maximum depth of the incremental snapshot tree (1 = the classic
  // root+incremental pair). The engine pushes deeper snapshots at packet
  // boundaries when this allows it.
  size_t snapshot_depth = env::SnapshotDepth(1);
};

struct VmStats {
  uint64_t root_restores = 0;
  uint64_t incremental_restores = 0;  // restores to any depth >= 1
  uint64_t incremental_creates = 0;   // pushes at any depth
  uint64_t deep_restores = 0;         // restores to depth >= 2
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
  // `aux` is returned verbatim by current_aux() after every root restore.
  void TakeRootSnapshot(Bytes aux = {});
  bool has_root() const { return root_ != nullptr; }
  const RootSnapshot& root() const { return *root_; }

  // Resets memory, devices and disk to the root snapshot and invalidates
  // every tree slot (the scheduled input changed; the whole lineage is
  // stale). Cost is proportional to the number of pages that differ.
  void RestoreRoot();

  // Snapshot tree ----------------------------------------------------------

  // Captures a snapshot at depth cur_depth()+1 (which must not exceed
  // config().snapshot_depth), invalidating any deeper stale slots. Returns
  // the new depth.
  size_t PushSnapshot(Bytes aux = {});

  // Restores to `depth` (0 = root content without invalidating the tree;
  // forward restores to still-valid deeper slots are allowed). Reverts only
  // current dirt plus the deltas between cur_depth() and `depth`.
  void RestoreTo(size_t depth);

  size_t cur_depth() const { return cur_depth_; }
  // Deepest d such that slots 1..d are all valid (0 when none).
  size_t max_valid_depth() const;
  bool has_snapshot_at(size_t depth) const {
    return depth >= 1 && depth <= max_valid_depth();
  }
  // Aux blob captured with slot `depth` (1-based).
  const Bytes& aux_at(size_t depth) const { return slots_[depth - 1].aux; }

  // Classic single-incremental API (depth-1 wrappers) -----------------------

  // Captures the single second-level snapshot. Must be at the root state
  // (cur_depth() == 0); deeper captures go through PushSnapshot.
  void CreateIncremental(Bytes aux = {});
  bool has_incremental() const { return has_snapshot_at(1); }
  const IncrementalSnapshot& incremental() const { return *slots_[0].snap; }
  void RestoreIncremental() { RestoreTo(1); }
  // Invalidates every slot (memory is untouched; retained deltas are still
  // reverted by later restores).
  void DropIncremental();

  // The aux blob of whichever snapshot was restored last.
  const Bytes& current_aux() const { return current_aux_; }

  const VmStats& stats() const { return stats_; }

 private:
  struct TreeSlot {
    std::unique_ptr<IncrementalSnapshot> snap;
    Bytes aux;
  };

  void RestoreDevices(const DeviceState& saved);
  // Content of `page` at tree depth `depth` (lineage resolution).
  const uint8_t* ResolvePage(size_t depth, uint32_t page) const;
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
  // slots_[d-1] holds the depth-d snapshot. Slots are created on first use
  // and retained (invalidated, not destroyed) so their mirrors and deltas
  // stay reusable and restorable-past.
  std::vector<TreeSlot> slots_;
  size_t cur_depth_ = 0;
  // Preallocated scratch for RestoreTo: dedup bitmap + revert page list.
  std::vector<uint8_t> visited_;
  std::vector<uint32_t> revert_;
  Bytes root_aux_;
  Bytes current_aux_;

  VmStats stats_;
  VirtualClock* clock_ = nullptr;
  const CostModel* cost_ = nullptr;
};

}  // namespace nyx

#endif  // SRC_VM_VM_H_
