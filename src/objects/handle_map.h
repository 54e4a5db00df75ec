#ifndef TREEBENCH_OBJECTS_HANDLE_MAP_H_
#define TREEBENCH_OBJECTS_HANDLE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "src/common/flat_index.h"
#include "src/storage/rid.h"

namespace treebench {

/// The in-memory representative of an object — O2's *Handle* (paper
/// Section 4). The real O2 handle is ~60 bytes of bookkeeping (flags,
/// index-list pointer, type pointer, version pointer, reference count, ...);
/// here the bookkeeping burden is *modeled*: every materialization /
/// re-reference / unreference charges the configured handle costs, and the
/// handle's modeled footprint counts against the simulated machine's RAM.
struct ObjectHandle {
  Rid rid;  // canonical Rid (forwards resolved)
  uint16_t class_id = 0;
  uint32_t refcount = 0;
};

/// Resident handles keyed by packed canonical rid. Handles live in a
/// std::deque pool (elements never move as it grows) with a free list, and
/// a FlatIndex maps each key to its handle's index in the pool, so a
/// materialization costs no heap allocation once the pool has warmed up.
/// An ObjectHandle* stays valid while its entry lives, across growth and
/// across other entries' erasure; an erased handle's storage is reused by a
/// later Insert, so the pool holds at most as many handles as were ever
/// resident at once since the last clear(). Under AddressSanitizer an
/// erased handle stays poisoned until Insert hands it out again, so a use
/// after Erase is reported rather than read from whichever object reuses
/// the storage. Iteration order is not exposed: nothing may depend on it.
class HandleMap {
 public:
  /// The handle stored under `key`, or nullptr.
  ObjectHandle* Find(uint64_t key) {
    uint32_t id = index_.Find(key);
    return id == FlatIndex::kNone ? nullptr : &pool_[id].handle;
  }

  /// Stores a copy of `handle` under `key`, which must not be present.
  /// Returns the stored handle.
  ObjectHandle* Insert(uint64_t key, const ObjectHandle& handle) {
    uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      Unpoison(&pool_[id]);
      pool_[id].handle = handle;
    } else {
      id = static_cast<uint32_t>(pool_.size());
      pool_.push_back(Pooled{handle});
    }
    index_.Insert(key, id);
    return &pool_[id].handle;
  }

  /// Releases the handle stored under `key` to the pool. Returns false if
  /// absent.
  bool Erase(uint64_t key) {
    uint32_t id = index_.Erase(key);
    if (id == FlatIndex::kNone) return false;
    free_.push_back(id);
    Poison(&pool_[id]);
    return true;
  }

  size_t size() const { return index_.size(); }

  /// Releases every handle and frees the pool (a cold restart; what runs
  /// next may need the memory more than the next refill). Keeps the
  /// index's slot array for refilling.
  void clear() {
    for (uint32_t id : free_) Unpoison(&pool_[id]);
    index_.clear();
    free_.clear();
    pool_.clear();
  }

 private:
#if defined(__SANITIZE_ADDRESS__)
  // ASan poisons in 8-byte granules and cannot poison the head of a granule
  // whose tail is live, so under ASan each pooled handle fills whole
  // granules and Erase can poison all of it.
  static constexpr size_t kPoolAlign = 8;
#else
  static constexpr size_t kPoolAlign = alignof(ObjectHandle);
#endif
  struct alignas(kPoolAlign) Pooled {
    ObjectHandle handle;
  };

  static void Poison([[maybe_unused]] Pooled* p) {
#if defined(__SANITIZE_ADDRESS__)
    __asan_poison_memory_region(p, sizeof(*p));
#endif
  }
  static void Unpoison([[maybe_unused]] Pooled* p) {
#if defined(__SANITIZE_ADDRESS__)
    __asan_unpoison_memory_region(p, sizeof(*p));
#endif
  }

  FlatIndex index_;
  std::deque<Pooled> pool_;     // indexed by the ids in index_
  std::vector<uint32_t> free_;  // released ids, reused last-in first-out
};

}  // namespace treebench

#endif  // TREEBENCH_OBJECTS_HANDLE_MAP_H_
