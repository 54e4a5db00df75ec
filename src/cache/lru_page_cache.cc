#include "src/cache/lru_page_cache.h"

#include "src/common/logging.h"

namespace treebench {

LruPageCache::Evicted LruPageCache::Insert(uint64_t key, bool dirty) {
  TB_DCHECK(!Contains(key));
  Evicted evicted;
  if (capacity_ == 0) {
    evicted.valid = true;
    evicted.key = key;
    evicted.dirty = dirty;
    return evicted;
  }
  uint32_t n;
  if (index_.size() >= capacity_) {
    // The victim's node is reused for the new page.
    n = tail_;
    evicted.valid = true;
    evicted.key = nodes_[n].key;
    evicted.dirty = nodes_[n].dirty;
    index_.Erase(nodes_[n].key);
    Unlink(n);
  } else if (free_ != kNil) {
    n = free_;
    free_ = nodes_[n].next;
  } else {
    n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n].key = key;
  nodes_[n].dirty = dirty;
  PushFront(n);
  index_.Insert(key, n);
  return evicted;
}

bool LruPageCache::Erase(uint64_t key) {
  uint32_t n = index_.Erase(key);
  if (n == kNil) return false;
  Unlink(n);
  nodes_[n].next = free_;
  free_ = n;
  return nodes_[n].dirty;
}

}  // namespace treebench
