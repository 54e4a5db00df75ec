#ifndef TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
#define TREEBENCH_CACHE_LRU_PAGE_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/common/flat_index.h"

namespace treebench {

/// LRU residency tracker for one cache level. It tracks *which* pages are
/// resident and their dirty bit; page bytes live in the DiskManager (the
/// simulation charges time, it does not copy data).
///
/// Resident pages are nodes of a pool (a vector that grows with the
/// resident set, never preallocated to the capacity, with a free list for
/// erased nodes) chained into an intrusive doubly linked LRU list by node
/// index. An eviction reuses the victim's node. A FlatIndex maps page keys
/// to node indices.
class LruPageCache {
 public:
  /// Result of an insertion: the page that had to be evicted, if any.
  struct Evicted {
    bool valid = false;
    uint64_t key = 0;
    bool dirty = false;
  };

  explicit LruPageCache(uint32_t capacity_pages)
      : capacity_(capacity_pages) {}

  LruPageCache(const LruPageCache&) = delete;
  LruPageCache& operator=(const LruPageCache&) = delete;

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return static_cast<uint32_t>(index_.size()); }

  bool Contains(uint64_t key) const { return index_.Find(key) != kNil; }

  /// If resident, promotes to MRU and returns true.
  bool Touch(uint64_t key) {
    uint32_t n = index_.Find(key);
    if (n == kNil) return false;
    if (n != head_) {
      Unlink(n);
      PushFront(n);
    }
    return true;
  }

  /// Inserts `key` as MRU (must not be resident). Returns the evicted entry
  /// if the cache was full. A capacity-0 cache evicts the inserted key
  /// immediately.
  Evicted Insert(uint64_t key, bool dirty = false);

  /// Marks a resident page dirty. No-op if not resident.
  void MarkDirty(uint64_t key) {
    uint32_t n = index_.Find(key);
    if (n != kNil) nodes_[n].dirty = true;
  }

  bool IsDirty(uint64_t key) const {
    uint32_t n = index_.Find(key);
    return n != kNil && nodes_[n].dirty;
  }

  /// Clears the dirty bit of a resident page; returns whether it was dirty.
  bool ClearDirty(uint64_t key) {
    uint32_t n = index_.Find(key);
    if (n == kNil || !nodes_[n].dirty) return false;
    nodes_[n].dirty = false;
    return true;
  }

  /// Removes `key` if resident; returns whether it was dirty.
  bool Erase(uint64_t key);

  /// Calls `fn(key)` for every dirty resident page and clears dirty bits.
  /// Pages are visited in LRU order, least recently used first. `fn` must
  /// not modify this cache.
  template <typename Fn>
  void FlushDirty(Fn&& fn) {
    for (uint32_t n = tail_; n != kNil; n = nodes_[n].prev) {
      if (nodes_[n].dirty) {
        fn(nodes_[n].key);
        nodes_[n].dirty = false;
      }
    }
  }

  /// Drops everything (server shutdown between cold runs). Keeps the node
  /// pool's and the index's storage for refilling.
  void Clear() {
    nodes_.clear();
    index_.clear();
    head_ = tail_ = free_ = kNil;
  }

 private:
  static constexpr uint32_t kNil = FlatIndex::kNone;

  struct Node {
    uint64_t key;
    uint32_t prev;  // toward MRU; kNil at the head
    uint32_t next;  // toward LRU; kNil at the tail (or the free-list link)
    bool dirty;
  };

  void Unlink(uint32_t n) {
    Node& node = nodes_[n];
    if (node.prev != kNil) {
      nodes_[node.prev].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNil) {
      nodes_[node.next].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
  }

  void PushFront(uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = n;
    } else {
      tail_ = n;
    }
    head_ = n;
  }

  uint32_t capacity_;
  std::vector<Node> nodes_;
  FlatIndex index_;       // key -> node index
  uint32_t head_ = kNil;  // MRU
  uint32_t tail_ = kNil;  // LRU
  uint32_t free_ = kNil;  // erased nodes, chained through Node::next
};

}  // namespace treebench

#endif  // TREEBENCH_CACHE_LRU_PAGE_CACHE_H_
