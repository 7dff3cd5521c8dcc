#include "src/vm/dirty_tracker.h"

#include <utility>

#include "src/common/check.h"

namespace nyx {

DirtyTracker::DirtyTracker(size_t num_pages)
    : bitmap_(num_pages, 0),
      stack_(num_pages, 0),
      marks_counter_(telemetry::MetricRegistry::Global().RegisterCounter("vm.dirty_marks")),
      ring_exit_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("vm.dirty_ring_exits")) {}

void DirtyTracker::MarkDirty(uint32_t page) {
  // An out-of-range page means the fault handler or a guest write computed a
  // bogus page number — distinct from the common already-dirty fast path.
  if (!NYX_EXPECT(page < bitmap_.size())) {
    return;
  }
  if (bitmap_[page] != 0) {
    return;
  }
  bitmap_[page] = 1;
  NYX_DCHECK_LT(stack_size_, stack_.size());
  stack_[stack_size_++] = page;
  total_marks_++;
  marks_counter_->Add(1);
  if (++ring_fill_ >= kDirtyRingCapacity) {
    ring_fill_ = 0;
    ring_exits_++;
    ring_exit_counter_->Add(1);
  }
}

void DirtyTracker::Pin(size_t index) {
  NYX_DCHECK_LE(pinned_, index);
  NYX_DCHECK_LT(index, stack_size_);
  std::swap(stack_[index], stack_[pinned_]);
  pinned_++;
}

void DirtyTracker::Clear() {
  for (size_t i = pinned_; i < stack_size_; i++) {
    bitmap_[stack_[i]] = 0;
  }
  stack_size_ = pinned_;
  ring_fill_ = 0;
}

}  // namespace nyx
