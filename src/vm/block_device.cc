#include "src/vm/block_device.h"

#include <cstring>

namespace nyx {

BlockDevice::BlockDevice(size_t num_sectors)
    : num_sectors_(num_sectors),
      data_(num_sectors * kSectorSize, 0),
      dirty_bitmap_(num_sectors, 0) {
  dirty_stack_.reserve(num_sectors);
}

void BlockDevice::MarkSectorDirty(uint32_t sector) {
  if (dirty_bitmap_[sector] == 0) {
    dirty_bitmap_[sector] = 1;
    dirty_stack_.push_back(sector);
  }
}

void BlockDevice::WriteBytes(uint64_t offset, const void* src, size_t len) {
  if (len == 0 || offset + len > data_.size()) {
    return;
  }
  const uint32_t first = static_cast<uint32_t>(offset / kSectorSize);
  const uint32_t last = static_cast<uint32_t>((offset + len - 1) / kSectorSize);
  for (uint32_t s = first; s <= last; s++) {
    MarkSectorDirty(s);
  }
  memcpy(data_.data() + offset, src, len);
}

void BlockDevice::ReadBytes(uint64_t offset, void* dst, size_t len) const {
  if (len == 0 || offset + len > data_.size()) {
    memset(dst, 0, len);
    return;
  }
  memcpy(dst, data_.data() + offset, len);
}

void BlockDevice::ClearDirty() {
  for (uint32_t s : dirty_stack_) {
    dirty_bitmap_[s] = 0;
  }
  dirty_stack_.clear();
}

BlockDevice::RootLayer BlockDevice::CaptureRoot() const { return RootLayer{data_}; }

void BlockDevice::RestoreFromRoot(const RootLayer& root) {
  for (uint32_t s : dirty_stack_) {
    memcpy(data_.data() + static_cast<size_t>(s) * kSectorSize,
           root.data.data() + static_cast<size_t>(s) * kSectorSize, kSectorSize);
  }
  ClearDirty();
}

BlockDevice::IncrementalLayer BlockDevice::CaptureIncremental() const {
  IncrementalLayer layer;
  layer.base_dirty = dirty_stack_;
  for (uint32_t s : dirty_stack_) {
    Bytes copy(kSectorSize);
    memcpy(copy.data(), SectorPtr(s), kSectorSize);
    layer.sectors.emplace(s, std::move(copy));
  }
  return layer;
}

void BlockDevice::RestoreFromIncremental(const IncrementalLayer& inc, const RootLayer& root) {
  // The stack already holds every sector the layer captured: they were
  // dirty at capture time and stay marked until a root restore.
  for (uint32_t s : dirty_stack_) {
    auto it = inc.sectors.find(s);
    const uint8_t* src = it != inc.sectors.end()
                             ? it->second.data()
                             : root.data.data() + static_cast<size_t>(s) * kSectorSize;
    memcpy(data_.data() + static_cast<size_t>(s) * kSectorSize, src, kSectorSize);
  }
  // Dirtiness relative to the *incremental* snapshot is now zero, but the
  // sectors named in the layer are still dirty relative to root; the caller
  // (Vm) re-marks them so a later root restore reverts them too.
  ClearDirty();
  for (uint32_t s : inc.base_dirty) {
    MarkSectorDirty(s);
  }
}

}  // namespace nyx
