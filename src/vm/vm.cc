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

void Vm::TakeRootSnapshot() {
  root_ = std::make_unique<RootSnapshot>(mem_, devices_, disk_);
  // The old mirror maps the previous root's memfd.
  inc_.reset();
  inc_base_live_ = false;
  disk_.ClearDirty();
  mem_.ArmTracking();
}

void Vm::RestoreDevices(const DeviceState& saved) {
  devices_.CopyFrom(saved);
  Charge(cost_ != nullptr ? cost_->device_reset_fast_ns : 0);
}

void Vm::RestorePages(std::span<const uint32_t> delta, const IncrementalSnapshot* inc) {
  // Revert set: current dirt plus `delta`, deduplicated via the
  // preallocated visited bitmap.
  size_t n = 0;
  auto add = [&](uint32_t p) {
    if (visited_[p] == 0) {
      visited_[p] = 1;
      revert_[n++] = p;
    }
  };
  for (const uint32_t p : mem_.tracker().dirty()) {
    add(p);
  }
  for (const uint32_t p : delta) {
    add(p);
  }

  // Open still-protected pages once (coalesced), copy, seal once — instead
  // of a protection-toggle pair around every single page copy.
  mem_.OpenForRestore(revert_.data(), n);
  for (size_t i = 0; i < n; i++) {
    const uint32_t p = revert_[i];
    visited_[p] = 0;
    const uint8_t* src =
        inc != nullptr && inc->has_page(p) ? inc->PagePtr(p) : root_->PagePtr(p);
    memcpy(mem_.base() + static_cast<size_t>(p) * kPageSize, src, kPageSize);
  }
  mem_.SealAfterRestore();

  stats_.pages_restored += n;
  if (cost_ != nullptr) {
    Charge(cost_->snapshot_restore_fixed_ns + n * cost_->snapshot_page_copy_ns);
  }
}

void Vm::RestoreRoot() {
  NYX_CHECK(root_ != nullptr) << "RestoreRoot before TakeRootSnapshot";
  // Page copies and re-arming are the dirty-reset cost the paper's stack
  // optimization targets; the scope nests inside the engine's
  // snapshot-restore phase, so self-time splits them cleanly.
  telemetry::ScopedPhase phase(telemetry::Phase::kDirtyReset);
  // Retained delta: the incremental's pages left the dirty tracker when it
  // was captured, and dropping it did not clean them.
  std::span<const uint32_t> delta;
  if (inc_base_live_) {
    delta = inc_->base_pages();
  }
  RestorePages(delta, nullptr);
  inc_base_live_ = false;
  DropIncremental();
  disk_.RestoreFromRoot(root_->disk());
  RestoreDevices(root_->devices());
  stats_.root_restores++;
}

void Vm::RestoreIncremental() {
  NYX_CHECK(has_incremental()) << "RestoreIncremental without a valid incremental snapshot";
  telemetry::ScopedPhase phase(telemetry::Phase::kDirtyReset);
  // Memory already holds the delta; only the dirt on top of it moves.
  RestorePages({}, inc_.get());
  disk_.RestoreFromIncremental(inc_->disk(), root_->disk());
  RestoreDevices(inc_->devices());
  stats_.incremental_restores++;
}

void Vm::CreateIncremental() {
  NYX_CHECK(root_ != nullptr) << "CreateIncremental before TakeRootSnapshot";
  NYX_CHECK(!inc_base_live_) << "CreateIncremental away from the root state";
  telemetry::ScopedPhase phase(telemetry::Phase::kDirtyReset);
  if (inc_ == nullptr) {
    inc_ = std::make_unique<IncrementalSnapshot>(*root_);
  }
  const size_t dirty = mem_.tracker().stack_size();
  inc_->Capture(mem_, devices_, disk_);
  mem_.ReArmDirtyPages();
  inc_base_live_ = true;

  stats_.incremental_creates++;
  stats_.pages_captured += dirty;
  if (cost_ != nullptr) {
    Charge(dirty * cost_->incremental_create_page_ns + cost_->device_reset_fast_ns);
  }
}

void Vm::DropIncremental() {
  if (inc_ != nullptr) {
    inc_->Invalidate();
  }
}

}  // namespace nyx
