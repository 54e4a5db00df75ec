#ifndef TREEBENCH_OBJECTS_HANDLE_MAP_H_
#define TREEBENCH_OBJECTS_HANDLE_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
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

/// Resident handles keyed by packed canonical rid: a flat open-addressing
/// table (linear probing over a power-of-two slot array, multiplicative
/// hash, load factor at most 1/2). Erase shifts the rest of the probe run
/// back instead of leaving tombstones, so lookups never scan dead slots.
/// Handles are heap-owned, so an ObjectHandle* stays valid while its entry
/// lives, across growth and across other entries' erasure. Iteration order
/// is not exposed: nothing may depend on it.
class HandleMap {
 public:
  /// The handle stored under `key`, or nullptr.
  ObjectHandle* Find(uint64_t key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.handle == nullptr) return nullptr;
      if (s.key == key) return s.handle.get();
    }
  }

  /// Stores `handle` under `key`, which must not be present. Returns the
  /// stored handle.
  ObjectHandle* Insert(uint64_t key, std::unique_ptr<ObjectHandle> handle) {
    TB_CHECK(handle != nullptr);
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    size_t i = Home(key);
    for (; slots_[i].handle != nullptr; i = (i + 1) & mask_) {
      TB_CHECK(slots_[i].key != key);
    }
    slots_[i].key = key;
    slots_[i].handle = std::move(handle);
    ++size_;
    return slots_[i].handle.get();
  }

  /// Destroys the handle stored under `key`. Returns false if absent.
  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    size_t hole = Home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].handle == nullptr) return false;
      if (slots_[hole].key == key) break;
    }
    slots_[hole].handle.reset();
    // Backward shift: walk the rest of the run and move back every entry
    // whose home does not lie cyclically in (hole, j], since the hole now
    // breaks its probe path.
    for (size_t j = (hole + 1) & mask_; slots_[j].handle != nullptr;
         j = (j + 1) & mask_) {
      size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    --size_;
    return true;
  }

  size_t size() const { return size_; }

  /// Destroys every handle; keeps the slot array for refilling.
  void clear() {
    for (Slot& s : slots_) s.handle.reset();
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    std::unique_ptr<ObjectHandle> handle;  // null marks an empty slot
  };

  static constexpr size_t kMinSlots = 16;

  /// Fibonacci hashing: the top bits of key * 2^64/phi. Valid only once
  /// Grow() has sized the slot array, which is why Find and Erase return
  /// early on an empty map.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    size_t n = old.empty() ? kMinSlots : old.size() * 2;
    slots_ = std::vector<Slot>(n);
    mask_ = n - 1;
    shift_ = 64 - std::countr_zero(n);
    for (Slot& s : old) {
      if (s.handle == nullptr) continue;
      size_t i = Home(s.key);
      while (slots_[i].handle != nullptr) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace treebench

#endif  // TREEBENCH_OBJECTS_HANDLE_MAP_H_
