#include "src/vm/snapshot.h"

#include <fcntl.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#ifndef MFD_CLOEXEC
#include <sys/syscall.h>
#endif

#include "src/common/check.h"

namespace nyx {
namespace {

bool IsZeroPage(const uint8_t* page) {
  uint64_t any = 0;
  for (size_t off = 0; off < kPageSize; off += sizeof(uint64_t)) {
    uint64_t word;
    memcpy(&word, page + off, sizeof(word));
    any |= word;
  }
  return any == 0;
}

}  // namespace

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

RootSnapshot::RootSnapshot(const GuestMemory& mem, const DeviceState& devices,
                           const BlockDevice& disk)
    : size_bytes_(mem.size_bytes()),
      stored_(mem.num_pages(), 0),
      devices_(devices),
      disk_(disk.CaptureRoot()) {
  memfd_ = memfd_create("nyx-root-snapshot", MFD_CLOEXEC);
  if (memfd_ < 0) {
    perror("memfd_create");
    abort();
  }
  if (ftruncate(memfd_, static_cast<off_t>(size_bytes_)) != 0) {
    perror("ftruncate");
    abort();
  }
  void* w = mmap(nullptr, size_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED, memfd_, 0);
  if (w == MAP_FAILED) {
    perror("mmap root snapshot");
    abort();
  }
  // Store the populated pages that are not all zeros. Without pagemap every
  // page counts as populated and the zero scan alone decides.
  constexpr size_t kChunk = 512;
  uint64_t entries[kChunk];
  const Pagemap pagemap;
  for (size_t first = 0; first < mem.num_pages(); first += kChunk) {
    const size_t count = std::min(kChunk, mem.num_pages() - first);
    const uint8_t* src = mem.base() + first * kPageSize;
    const bool mapped = pagemap.Read(src, count, entries);
    for (size_t i = 0; i < count; i++, src += kPageSize) {
      if ((mapped && !Pagemap::Populated(entries[i])) || IsZeroPage(src)) {
        continue;
      }
      memcpy(static_cast<uint8_t*>(w) + (first + i) * kPageSize, src, kPageSize);
      stored_[first + i] = 1;
      stored_pages_++;
    }
  }
  // Keep a read-only view for restores; drop the writable one. Sealing the
  // view is not dirty tracking, so it goes through the sanctioned raw call.
  RawProtect(w, size_bytes_, PROT_READ);
  view_ = static_cast<const uint8_t*>(w);
}

RootSnapshot::~RootSnapshot() {
  if (view_ != nullptr) {
    munmap(const_cast<uint8_t*>(view_), size_bytes_);
  }
  if (memfd_ >= 0) {
    close(memfd_);
  }
}

IncrementalSnapshot::IncrementalSnapshot(const RootSnapshot& root)
    : root_(root),
      size_bytes_(root.size_bytes()),
      in_delta_(root.size_bytes() / kPageSize, 0),
      in_mirror_(root.size_bytes() / kPageSize, 0),
      devices_(root.devices()) {
  void* m = mmap(nullptr, size_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE, root.memfd(), 0);
  if (m == MAP_FAILED) {
    perror("mmap incremental mirror");
    abort();
  }
  mirror_ = static_cast<uint8_t*>(m);
}

IncrementalSnapshot::~IncrementalSnapshot() {
  if (mirror_ != nullptr) {
    munmap(mirror_, size_bytes_);
  }
}

void IncrementalSnapshot::ReMirror() {
  munmap(mirror_, size_bytes_);
  void* m = mmap(nullptr, size_bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE, root_.memfd(), 0);
  if (m == MAP_FAILED) {
    perror("mmap re-mirror");
    abort();
  }
  mirror_ = static_cast<uint8_t*>(m);
  // base_pages_ is rebuilt by the caller right after a re-mirror; any other
  // private copies are gone with the old mapping, so the whole flag vector
  // resets.
  for (auto& flag : in_mirror_) {
    flag = 0;
  }
  private_page_count_ = 0;
  remirrors_++;
}

void IncrementalSnapshot::Capture(const GuestMemory& mem, const DeviceState& devices,
                                  const BlockDevice& disk) {
  captures_++;
  // The previous capture's delta membership is void either way below.
  for (uint32_t p : base_pages_) {
    in_delta_[p] = 0;
  }
  if (captures_ % kReMirrorInterval == 0) {
    ReMirror();
    base_pages_.clear();
  }

  const std::span<const uint32_t> dirty = mem.tracker().dirty();

  // Revert pages captured previously but not dirtied this time: overwrite the
  // (already private) mirror page with root content. Reusing the existing
  // private copy avoids a page-table change.
  if (!base_pages_.empty()) {
    // Membership mask for the new dirty set.
    for (uint32_t p : dirty) {
      in_mirror_[p] |= 2;
    }
    for (uint32_t p : base_pages_) {
      if ((in_mirror_[p] & 2) == 0 && (in_mirror_[p] & 1) != 0) {
        memcpy(mirror_ + static_cast<size_t>(p) * kPageSize, root_.PagePtr(p), kPageSize);
      }
    }
    for (uint32_t p : dirty) {
      in_mirror_[p] &= 1;
    }
  }

  base_pages_.assign(dirty.begin(), dirty.end());
  for (const uint32_t p : dirty) {
    NYX_DCHECK_LT(static_cast<size_t>(p), in_mirror_.size());
    in_delta_[p] = 1;
    if ((in_mirror_[p] & 1) == 0) {
      in_mirror_[p] |= 1;
      private_page_count_++;
    }
    memcpy(mirror_ + static_cast<size_t>(p) * kPageSize,
           mem.base() + static_cast<size_t>(p) * kPageSize, kPageSize);
  }

  devices_.CopyFrom(devices);
  disk_ = disk.CaptureIncremental();
  valid_ = true;
}

}  // namespace nyx
