#include "src/vm/vm.h"

#include <string.h>

#include "src/common/check.h"
#include "src/common/telemetry.h"

namespace nyx {

Vm::Vm(const VmConfig& config)
    : config_(config),
      mem_(config.mem_pages),
      disk_(config.disk_sectors),
      visited_(config.mem_pages, 0),
      revert_(config.mem_pages, 0) {
  // A small standard device complement; targets may add more before the root
  // snapshot is taken.
  devices_.AddDevice("serial", 64);
  devices_.AddDevice("rtc", 32);
  devices_.AddDevice("virtio-net", 512);
  devices_.AddDevice("virtio-blk", 256);
}

void Vm::TakeRootSnapshot(Bytes aux) {
  root_ = std::make_unique<RootSnapshot>(mem_, devices_, disk_);
  root_aux_ = std::move(aux);
  current_aux_ = root_aux_;
  // Old mirrors map the previous root's memfd; the whole tree goes away.
  slots_.clear();
  cur_depth_ = 0;
  disk_.ClearDirty();
  mem_.ArmTracking();
}

void Vm::RestoreDevices(const DeviceState& saved) {
  if (config_.fast_device_reset) {
    devices_.CopyFrom(saved);
    Charge(cost_ != nullptr ? cost_->device_reset_fast_ns : 0);
  } else {
    // QEMU-style: serialize the saved state and parse it back field by field.
    Bytes blob = saved.Serialize();
    NYX_CHECK(devices_.Deserialize(blob)) << "device state failed to round-trip";
    Charge(cost_ != nullptr ? cost_->device_reset_slow_ns : 0);
  }
}

size_t Vm::max_valid_depth() const {
  // Validity is a contiguous prefix by construction: pushes invalidate
  // everything deeper, drops and root restores invalidate everything.
  size_t d = 0;
  while (d < slots_.size() && slots_[d].snap != nullptr && slots_[d].snap->valid()) {
    d++;
  }
  return d;
}

const uint8_t* Vm::ResolvePage(size_t depth, uint32_t page) const {
  // Deepest slot at or above `depth` whose delta captured the page wins;
  // pages no slot captured still hold root content at that depth.
  for (size_t e = depth; e >= 1; e--) {
    const auto& snap = slots_[e - 1].snap;
    if (snap != nullptr && snap->has_page(page)) {
      return snap->PagePtr(page);
    }
  }
  return root_->PagePtr(page);
}

void Vm::RestoreTo(size_t depth) {
  NYX_CHECK(root_ != nullptr) << "RestoreTo before TakeRootSnapshot";
  NYX_CHECK(depth == 0 || has_snapshot_at(depth))
      << "RestoreTo(" << depth << ") without a valid snapshot at that depth";
  // Page copies and re-arming are the dirty-reset cost the paper's stack
  // optimization targets; the scope nests inside the engine's
  // snapshot-restore phase, so self-time splits them cleanly.
  telemetry::ScopedPhase phase(telemetry::Phase::kDirtyReset);

  const size_t lo = depth < cur_depth_ ? depth : cur_depth_;
  const size_t hi = depth < cur_depth_ ? cur_depth_ : depth;

  // Revert set: current dirt plus the deltas of slots (lo, hi] — the
  // unshared suffix between the current state and the target. Deltas of
  // slots <= lo are common ancestry and stay untouched; that is the entire
  // point of the tree. Invalidated slots' deltas still count (memory may
  // hold their content), which is why slots are retained after
  // invalidation. Deduplicated via the preallocated visited bitmap.
  size_t n = 0;
  for (const uint32_t p : mem_.tracker().dirty()) {
    if (visited_[p] == 0) {
      visited_[p] = 1;
      revert_[n++] = p;
    }
  }
  for (size_t e = lo + 1; e <= hi; e++) {
    const auto& snap = slots_[e - 1].snap;
    if (snap == nullptr) {
      continue;
    }
    for (const uint32_t p : snap->base_pages()) {
      if (visited_[p] == 0) {
        visited_[p] = 1;
        revert_[n++] = p;
      }
    }
  }

  // Open still-protected pages once (coalesced), copy, seal once — instead
  // of a protection-toggle pair around every single page copy.
  mem_.OpenForRestore(revert_.data(), n);
  for (size_t i = 0; i < n; i++) {
    const uint32_t p = revert_[i];
    visited_[p] = 0;
    memcpy(mem_.base() + static_cast<size_t>(p) * kPageSize, ResolvePage(depth, p), kPageSize);
  }
  mem_.SealAfterRestore();
  cur_depth_ = depth;

  if (depth == 0) {
    disk_.RestoreFromRoot(root_->disk());
    RestoreDevices(root_->devices());
    current_aux_ = root_aux_;
    stats_.root_restores++;
  } else {
    const TreeSlot& slot = slots_[depth - 1];
    disk_.RestoreFromIncremental(slot.snap->disk(), root_->disk());
    RestoreDevices(slot.snap->devices());
    current_aux_ = slot.aux;
    stats_.incremental_restores++;
    if (depth >= 2) {
      stats_.deep_restores++;
    }
  }

  stats_.pages_restored += n;
  if (cost_ != nullptr) {
    Charge(cost_->snapshot_restore_fixed_ns + n * cost_->snapshot_page_copy_ns);
  }
}

void Vm::RestoreRoot() {
  RestoreTo(0);
  // The scheduled input changed: every slot describes descendants of states
  // just discarded. Invalidation does not clean guest memory — it is root
  // again already — but retained deltas keep later restores correct if a
  // slot is recaptured.
  for (TreeSlot& slot : slots_) {
    if (slot.snap != nullptr) {
      slot.snap->Invalidate();
    }
  }
}

size_t Vm::PushSnapshot(Bytes aux) {
  NYX_CHECK(root_ != nullptr) << "PushSnapshot before TakeRootSnapshot";
  const size_t depth = cur_depth_ + 1;
  NYX_CHECK(depth <= config_.snapshot_depth)
      << "PushSnapshot beyond snapshot_depth " << config_.snapshot_depth;
  telemetry::ScopedPhase phase(telemetry::Phase::kDirtyReset);

  if (slots_.size() < depth) {
    slots_.resize(depth);
  }
  TreeSlot& slot = slots_[depth - 1];
  if (slot.snap == nullptr) {
    slot.snap = std::make_unique<IncrementalSnapshot>(*root_);
  }
  const size_t dirty = mem_.tracker().stack_size();
  slot.snap->Capture(mem_, devices_, disk_);
  // Deeper slots described descendants of the state this capture replaced.
  for (size_t e = depth; e < slots_.size(); e++) {
    if (slots_[e].snap != nullptr) {
      slots_[e].snap->Invalidate();
    }
  }
  mem_.ReArmDirtyPages();
  cur_depth_ = depth;
  slot.aux = std::move(aux);
  current_aux_ = slot.aux;

  stats_.incremental_creates++;
  stats_.pages_captured += dirty;
  if (cost_ != nullptr) {
    Charge(dirty * cost_->incremental_create_page_ns + cost_->device_reset_fast_ns);
  }
  return depth;
}

void Vm::CreateIncremental(Bytes aux) {
  NYX_CHECK(cur_depth_ == 0)
      << "CreateIncremental away from the root state; use PushSnapshot for deeper captures";
  PushSnapshot(std::move(aux));
}

void Vm::DropIncremental() {
  for (TreeSlot& slot : slots_) {
    if (slot.snap != nullptr) {
      slot.snap->Invalidate();
    }
  }
}

}  // namespace nyx
