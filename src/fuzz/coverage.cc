#include "src/fuzz/coverage.h"

namespace nyx {

namespace {

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  memcpy(&w, p, sizeof(w));
  return w;
}

inline void StoreWord(uint8_t* p, uint64_t w) { memcpy(p, &w, sizeof(w)); }

}  // namespace

uint8_t GlobalCoverage::Classify(uint8_t hits) {
  if (hits == 0) {
    return 0;
  }
  if (hits == 1) {
    return 1 << 0;
  }
  if (hits == 2) {
    return 1 << 1;
  }
  if (hits == 3) {
    return 1 << 2;
  }
  if (hits <= 7) {
    return 1 << 3;
  }
  if (hits <= 15) {
    return 1 << 4;
  }
  if (hits <= 31) {
    return 1 << 5;
  }
  if (hits <= 127) {
    return 1 << 6;
  }
  return 1 << 7;
}

bool GlobalCoverage::MergeAndCheckNew(const CoverageMap& trace) {
  bool new_bits = false;
  const auto& map = trace.map();
  const auto& map_dirty = trace.map_dirty();
  for (size_t g = 0; g < CoverageMap::kMapGroups; g++) {
    if (map_dirty[g] == 0) {
      continue;  // group untouched since Reset: guaranteed all-zero
    }
    const size_t base = g * CoverageMap::kMapGroupBytes;
    for (size_t off = 0; off < CoverageMap::kMapGroupBytes; off += 8) {
      if (LoadWord(map.data() + base + off) == 0) {
        continue;  // zero-word skim: most of even a dirty group is untouched
      }
      const size_t end = base + off + 8;
      for (size_t i = base + off; i < end; i++) {
        if (map[i] == 0) {
          continue;
        }
        const uint8_t cls = Classify(map[i]);
        if ((virgin_[i] & cls) != 0) {
          if (virgin_[i] == 0xff) {
            edge_count_++;
          }
          virgin_[i] &= static_cast<uint8_t>(~cls);
          new_bits = true;
        }
      }
    }
  }
  const auto& sites = trace.sites_hit();
  const auto& sites_dirty = trace.sites_dirty();
  for (size_t g = 0; g < CoverageMap::kSiteGroups; g++) {
    if (sites_dirty[g] == 0) {
      continue;
    }
    const size_t base = g * CoverageMap::kSiteGroupBytes;
    for (size_t off = 0; off < CoverageMap::kSiteGroupBytes; off += 8) {
      const uint64_t trace_w = LoadWord(sites.data() + base + off);
      const uint64_t mine_w = LoadWord(sites_.data() + base + off);
      const uint64_t fresh = trace_w & ~mine_w;
      if (fresh != 0) {
        StoreWord(sites_.data() + base + off, mine_w | fresh);
        site_count_ += static_cast<size_t>(__builtin_popcountll(fresh));
      }
    }
  }
  return new_bits;
}

}  // namespace nyx
