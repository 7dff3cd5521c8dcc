// Coverage feedback (paper section 4.5).
//
// Nyx-Net supports AFL-style compile-time instrumentation: the target updates
// a shared-memory bitmap; the fuzzer classifies hit counts into buckets and
// keeps a "virgin" map of bits never seen before. We reproduce that signal
// exactly. Separately we track which instrumentation *sites* were ever hit,
// which is what ProFuzzBench's "branch coverage" numbers (Tables 2/5,
// Figures 5/7) count.
//
// Both the per-exec reset and the per-exec merge are hot: a typical exec
// touches a few hundred edges but the maps total 72 KiB. The trace map
// therefore tracks which fixed-size groups were dirtied, so Reset() clears
// and MergeAndCheckNew() scans only those, and the merge skims the map in
// 64-bit words, skipping zero words (AFL's classify_counts trick).

#ifndef SRC_FUZZ_COVERAGE_H_
#define SRC_FUZZ_COVERAGE_H_

#include <array>
#include <cstdint>
#include <cstring>

#include "src/common/check.h"
#include "src/common/sync.h"

namespace nyx {

inline constexpr size_t kCovMapSize = 1 << 16;
inline constexpr size_t kMaxSites = 1 << 16;
inline constexpr size_t kSiteBytes = kMaxSites / 8;

// Per-execution trace bitmap, written by the instrumented target.
class CoverageMap {
 public:
  // Dirty-group granularity: 128 groups over each map, so the group flags
  // stay in two cache lines while one flag still covers a usefully small
  // slice (512 B of edge counters / 64 B of site bits).
  static constexpr size_t kMapGroupBytes = kCovMapSize / 128;
  static constexpr size_t kMapGroups = kCovMapSize / kMapGroupBytes;
  static constexpr size_t kSiteGroupBytes = kSiteBytes / 128;
  static constexpr size_t kSiteGroups = kSiteBytes / kSiteGroupBytes;

  CoverageMap() {
    map_.fill(0);
    sites_hit_.fill(0);
    map_dirty_.fill(0);
    sites_dirty_.fill(0);
  }

  // Clears only the groups dirtied since the last Reset — a full 72 KiB
  // clear per exec was a measured hot spot.
  void Reset() {
    // One affinity check per exec (not per site): the map is worker-owned
    // and unlocked, which is only sound while exactly one thread writes it.
    NYX_DCHECK(thread_checker_.CalledOnValidThread());
    for (size_t g = 0; g < kMapGroups; g++) {
      if (map_dirty_[g] != 0) {
        memset(map_.data() + g * kMapGroupBytes, 0, kMapGroupBytes);
        map_dirty_[g] = 0;
      }
    }
    for (size_t g = 0; g < kSiteGroups; g++) {
      if (sites_dirty_[g] != 0) {
        memset(sites_hit_.data() + g * kSiteGroupBytes, 0, kSiteGroupBytes);
        sites_dirty_[g] = 0;
      }
    }
    prev_loc_ = 0;
  }

  // Called at every instrumented site (AFL's __afl_maybe_log analogue).
  void OnSite(uint32_t site) {
    const uint32_t loc = site & (kCovMapSize - 1);
    const uint32_t idx = (loc ^ prev_loc_) & (kCovMapSize - 1);
    map_[idx]++;
    map_dirty_[idx / kMapGroupBytes] = 1;
    prev_loc_ = loc >> 1;
    const uint32_t byte = (site & (kMaxSites - 1)) >> 3;
    sites_hit_[byte] |= static_cast<uint8_t>(1u << (site & 7));
    sites_dirty_[byte / kSiteGroupBytes] = 1;
  }

  // Background-thread noise: perturbs the fuzzer-visible edge map (queue
  // pollution) without counting toward the externally measured branch
  // coverage — gcov over the target's own code never sees these.
  void OnNoiseEdge(uint32_t edge) {
    const uint32_t idx = edge & (kCovMapSize - 1);
    map_[idx]++;
    map_dirty_[idx / kMapGroupBytes] = 1;
  }

  const std::array<uint8_t, kCovMapSize>& map() const { return map_; }
  const std::array<uint8_t, kSiteBytes>& sites_hit() const { return sites_hit_; }
  const std::array<uint8_t, kMapGroups>& map_dirty() const { return map_dirty_; }
  const std::array<uint8_t, kSiteGroups>& sites_dirty() const { return sites_dirty_; }

 private:
  // Cache-line-aligned so the per-site increments of two workers' maps can
  // never straddle a shared line even when the owning objects are adjacent.
  alignas(kCacheLineSize) std::array<uint8_t, kCovMapSize> map_;
  alignas(kCacheLineSize) std::array<uint8_t, kSiteBytes> sites_hit_;
  std::array<uint8_t, kMapGroups> map_dirty_;
  std::array<uint8_t, kSiteGroups> sites_dirty_;
  uint32_t prev_loc_ = 0;
  ThreadChecker thread_checker_;
};

// Campaign-global accumulation: virgin bits for edge+hitcount novelty, site
// union for branch-coverage reporting. Worker-owned: each NyxFuzzer and
// BaselineFuzzer folds its traces into its own instance on the thread that
// runs its campaign (DESIGN.md §8.1).
class GlobalCoverage {
 public:
  GlobalCoverage() {
    virgin_.fill(0xff);
    sites_.fill(0);
  }

  // Classifies hit counts into AFL's 8 buckets and folds the trace into the
  // virgin map. Returns true if any new (edge, bucket) bit appeared.
  bool MergeAndCheckNew(const CoverageMap& trace);

  // Distinct instrumentation sites ever hit ("branch coverage").
  size_t SiteCount() const { return site_count_; }

  // Edge-granularity count over the virgin map (AFL's "map density").
  size_t EdgeCount() const { return edge_count_; }

 private:
  static uint8_t Classify(uint8_t hits);

  std::array<uint8_t, kCovMapSize> virgin_;
  std::array<uint8_t, kSiteBytes> sites_;
  size_t site_count_ = 0;
  size_t edge_count_ = 0;
};

}  // namespace nyx

#endif  // SRC_FUZZ_COVERAGE_H_
