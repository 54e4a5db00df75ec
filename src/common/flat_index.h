#ifndef TREEBENCH_COMMON_FLAT_INDEX_H_
#define TREEBENCH_COMMON_FLAT_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/logging.h"

namespace treebench {

/// Flat open-addressing map from a uint64_t key to a uint32_t id: linear
/// probing over a power-of-two slot array, multiplicative (Fibonacci) hash,
/// load factor at most 1/2. Erase shifts the rest of the probe run back
/// instead of leaving tombstones, so lookups never scan dead slots. The
/// slot array grows on demand and is never shrunk; clear() keeps it.
///
/// The one probe core behind HandleMap (ids of pooled handles) and
/// LruPageCache (ids of pooled LRU nodes): the owner keeps its values in a
/// pool and this index only maps keys to pool ids. Iteration order is not
/// exposed: nothing may depend on it.
class FlatIndex {
 public:
  /// The "absent" id; never stored.
  static constexpr uint32_t kNone = ~0u;

  /// The id stored under `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    if (size_ == 0) return kNone;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.key == key) return s.id;
    }
  }

  /// Stores `id` under `key`, which must not be present.
  void Insert(uint64_t key, uint32_t id) {
    TB_DCHECK(id != kNone);
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = Home(key);
    for (; slots_[i].id != kNone; i = (i + 1) & mask_) {
      TB_CHECK(slots_[i].key != key);
    }
    slots_[i] = Slot{key, id};
    ++size_;
  }

  /// Removes `key`; returns the id it held, or kNone if absent.
  uint32_t Erase(uint64_t key) {
    if (size_ == 0) return kNone;
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].id == kNone) return kNone;
      if (slots_[hole].key == key) break;
    }
    const uint32_t id = slots_[hole].id;
    // Backward shift: walk the rest of the run and move back every entry
    // whose home does not lie cyclically in (hole, j], since the hole now
    // breaks its probe path.
    for (size_t j = (hole + 1) & mask_; slots_[j].id != kNone;
         j = (j + 1) & mask_) {
      size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = kNone;
    --size_;
    return id;
  }

  size_t size() const { return size_; }

  /// Forgets every key; keeps the slot array for refilling.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.id = kNone;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t id = kNone;  // kNone marks an empty slot
  };

  static constexpr size_t kMinSlots = 16;

  /// Fibonacci hashing: the top bits of key * 2^64/phi. Valid only once
  /// Grow() has sized the slot array, which is why Find and Erase return
  /// early on an empty index.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    size_t n = old.empty() ? kMinSlots : old.size() * 2;
    slots_ = std::vector<Slot>(n);
    mask_ = n - 1;
    shift_ = 64 - std::countr_zero(n);
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      size_t i = Home(s.key);
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace treebench

#endif  // TREEBENCH_COMMON_FLAT_INDEX_H_
