#include "src/agamotto/agamotto.h"

#include <string.h>

#include <algorithm>
#include <vector>

namespace nyx {

AgamottoCheckpointManager::AgamottoCheckpointManager(GuestMemory& mem, const Config& config)
    : mem_(mem), config_(config), base_image_(mem.size_bytes()) {
  memcpy(base_image_.data(), mem.base(), mem.size_bytes());
  mem_.ArmTracking();
}

const uint8_t* AgamottoCheckpointManager::Node::FindPage(uint32_t page) const {
  auto it = std::lower_bound(pages.begin(), pages.end(), page,
                             [](const auto& entry, uint32_t p) { return entry.first < p; });
  if (it != pages.end() && it->first == page) {
    return it->second.get();
  }
  return nullptr;
}

const uint8_t* AgamottoCheckpointManager::ResolvePage(int id, uint32_t page) const {
  for (int cur = id; cur != -1;) {
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) {
      break;
    }
    if (const uint8_t* p = it->second.FindPage(page)) {
      return p;
    }
    cur = it->second.parent;
  }
  return base_image_.data() + static_cast<size_t>(page) * kPageSize;
}

void AgamottoCheckpointManager::Touch(int id) {
  auto pos = lru_pos_.find(id);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
  }
  lru_.push_front(id);
  lru_pos_[id] = lru_.begin();
}

void AgamottoCheckpointManager::DeleteNode(int id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return;
  }
  Node& node = it->second;
  // Re-parent children: their deltas stay correct only if the evicted node's
  // deltas are merged down into them first.
  for (int child : node.children) {
    Node& c = nodes_.at(child);
    c.parent = node.parent;
    for (auto& [page, data] : node.pages) {
      if (c.FindPage(page) == nullptr) {
        auto copy = std::make_unique<uint8_t[]>(kPageSize);
        memcpy(copy.get(), data.get(), kPageSize);
        auto ins = std::lower_bound(
            c.pages.begin(), c.pages.end(), page,
            [](const auto& entry, uint32_t p) { return entry.first < p; });
        c.pages.insert(ins, {page, std::move(copy)});
        stored_bytes_ += kPageSize;
      }
    }
    if (node.parent != -1) {
      nodes_.at(node.parent).children.push_back(child);
    }
  }
  if (node.parent != -1) {
    auto& siblings = nodes_.at(node.parent).children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), id), siblings.end());
  }
  stored_bytes_ -= node.pages.size() * kPageSize;
  auto pos = lru_pos_.find(id);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
    lru_pos_.erase(pos);
  }
  nodes_.erase(it);
  evictions_++;
}

void AgamottoCheckpointManager::EvictIfNeeded(int protect_id) {
  while (stored_bytes_ > config_.memory_budget_bytes && nodes_.size() > 1) {
    // Evict the least recently used checkpoint that is not the protected one.
    int victim = -1;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (*it != protect_id && *it != current_node_) {
        victim = *it;
        break;
      }
    }
    if (victim == -1) {
      return;
    }
    DeleteNode(victim);
  }
}

int AgamottoCheckpointManager::CreateCheckpoint() {
  const int parent_id = current_node_;
  Node node;
  node.id = next_id_++;
  node.parent = parent_id;
  // The defining cost: scan the whole bitmap to discover dirty pages.
  mem_.tracker().ForEachDirtyByBitmapWalk([&](uint32_t page) {
    auto copy = std::make_unique<uint8_t[]>(kPageSize);
    memcpy(copy.get(), mem_.base() + static_cast<size_t>(page) * kPageSize, kPageSize);
    node.pages.emplace_back(page, std::move(copy));
    stored_bytes_ += kPageSize;
  });
  // Stack iteration yields pages in dirtying order; FindPage needs them
  // sorted. (The bitmap walk already produces sorted output, but keep the
  // invariant explicit.)
  std::sort(node.pages.begin(), node.pages.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const int id = node.id;
  if (parent_id != -1) {
    nodes_.at(parent_id).children.push_back(id);
  }
  nodes_.emplace(id, std::move(node));
  Touch(id);
  mem_.ReArmDirtyPages();
  current_node_ = id;
  EvictIfNeeded(id);
  return id;
}

bool AgamottoCheckpointManager::RestoreCheckpoint(int id) {
  if (id != -1 && nodes_.count(id) == 0) {
    return false;
  }
  auto restore_page = [&](uint32_t page) {
    memcpy(mem_.base() + static_cast<size_t>(page) * kPageSize, ResolvePage(id, page),
           kPageSize);
  };

  // Pages in the old and new lineages' deltas may differ between the two
  // states even though they are not in the dirty log.
  std::unordered_map<uint32_t, bool> lineage_pages;
  for (int cur : {current_node_, id}) {
    while (cur != -1) {
      auto it = nodes_.find(cur);
      if (it == nodes_.end()) {
        break;
      }
      for (const auto& [page, data] : it->second.pages) {
        lineage_pages.emplace(page, true);
      }
      cur = it->second.parent;
    }
  }
  // Open the still-protected lineage pages in one coalesced pass (dirty ones
  // are already writable), copy everything, then seal opened+dirty together
  // — replacing the old protection-toggle pair around each single copy.
  std::vector<uint32_t> to_open;
  to_open.reserve(lineage_pages.size());
  for (const auto& [page, unused] : lineage_pages) {
    if (!mem_.tracker().IsDirty(page)) {
      to_open.push_back(page);
    }
  }
  std::sort(to_open.begin(), to_open.end());
  mem_.OpenForRestore(to_open.data(), to_open.size());
  for (const uint32_t page : to_open) {
    restore_page(page);
  }

  // Another full bitmap walk to find freshly dirtied pages to revert.
  mem_.tracker().ForEachDirtyByBitmapWalk(restore_page);
  mem_.SealAfterRestore();
  current_node_ = id;
  if (id != -1) {
    Touch(id);
  }
  return true;
}

}  // namespace nyx
