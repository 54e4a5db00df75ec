// Differential test of LruPageCache against a std::list reference model:
// random Touch/Insert/Erase/MarkDirty/ClearDirty/FlushDirty/Clear sequences
// at several capacities must give the same victims, dirty bits, sizes,
// residency and FlushDirty visiting order (least recently used first).
// Runs under the sanitizer CI lane (ctest -L fuzz): the cache reuses pool
// nodes and shifts index slots on every eviction and erase.
#include "src/cache/lru_page_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace treebench {
namespace {

// The obvious LRU: a list with the MRU page in front, searched linearly.
class ListModel {
 public:
  explicit ListModel(uint32_t capacity) : capacity_(capacity) {}

  size_t size() const { return lru_.size(); }
  bool Contains(uint64_t key) const { return Find(key) != lru_.end(); }
  bool IsDirty(uint64_t key) const {
    auto it = Find(key);
    return it != lru_.end() && it->dirty;
  }

  bool Touch(uint64_t key) {
    auto it = Find(key);
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }

  LruPageCache::Evicted Insert(uint64_t key, bool dirty) {
    LruPageCache::Evicted ev;
    if (capacity_ == 0) return {true, key, dirty};
    if (lru_.size() >= capacity_) {
      ev = {true, lru_.back().key, lru_.back().dirty};
      lru_.pop_back();
    }
    lru_.push_front({key, dirty});
    return ev;
  }

  bool SetDirty(uint64_t key, bool dirty) {
    auto it = Find(key);
    if (it == lru_.end()) return false;
    bool was = it->dirty;
    it->dirty = dirty;
    return was;
  }

  bool Erase(uint64_t key) {
    auto it = Find(key);
    if (it == lru_.end()) return false;
    bool dirty = it->dirty;
    lru_.erase(it);
    return dirty;
  }

  // Dirty pages from the least recently used on; clears their bits.
  std::vector<uint64_t> FlushDirty() {
    std::vector<uint64_t> out;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (it->dirty) out.push_back(it->key);
      it->dirty = false;
    }
    return out;
  }

  void Clear() { lru_.clear(); }

 private:
  struct Entry {
    uint64_t key;
    bool dirty;
  };
  std::list<Entry>::const_iterator Find(uint64_t key) const {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) return it;
    }
    return lru_.end();
  }
  std::list<Entry>::iterator Find(uint64_t key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) return it;
    }
    return lru_.end();
  }

  uint32_t capacity_;
  std::list<Entry> lru_;  // front = MRU
};

// Page keys as TwoLevelCache packs them: file id above the page id.
uint64_t PageKey(uint64_t file, uint64_t page) { return file << 32 | page; }

enum Op { kTouch, kInsert, kErase, kMarkDirty, kClearDirty, kFlush, kClear };

void RunDifferential(uint32_t capacity, uint64_t seed, int ops) {
  SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
               std::to_string(seed));
  Lrand48 rng(seed);
  // About twice the capacity, so inserts evict and erases miss often.
  std::vector<uint64_t> universe;
  for (uint64_t i = 0; i < 2 * capacity + 3; ++i) {
    universe.push_back(PageKey(rng.Uniform(3), rng.Uniform(1000)));
  }
  LruPageCache cache(capacity);
  ListModel model(capacity);
  // Weights for kTouch..kClear; Clear is rare (0.1%) so the cache fills.
  constexpr uint64_t kWeights[] = {300, 300, 100, 120, 80, 40, 1};
  uint64_t total = 0;
  for (uint64_t w : kWeights) total += w;
  uint64_t evictions = 0, flushed = 0;
  for (int step = 0; step < ops; ++step) {
    uint64_t key = universe[rng.Uniform(universe.size())];
    uint64_t draw = rng.Uniform(total);
    int op = 0;
    while (draw >= kWeights[op]) draw -= kWeights[op++];
    switch (op) {
      case kTouch:
        ASSERT_EQ(cache.Touch(key), model.Touch(key)) << "step " << step;
        break;
      case kInsert: {
        if (model.Contains(key)) {
          ASSERT_TRUE(cache.Touch(key)) << "step " << step;
          model.Touch(key);
          break;
        }
        bool dirty = rng.OneIn(0.4);
        LruPageCache::Evicted got = cache.Insert(key, dirty);
        LruPageCache::Evicted want = model.Insert(key, dirty);
        ASSERT_EQ(got.valid, want.valid) << "step " << step;
        if (want.valid) {
          ASSERT_EQ(got.key, want.key) << "step " << step;
          ASSERT_EQ(got.dirty, want.dirty) << "step " << step;
          ++evictions;
        }
        break;
      }
      case kErase:
        ASSERT_EQ(cache.Erase(key), model.Erase(key)) << "step " << step;
        break;
      case kMarkDirty:
        cache.MarkDirty(key);
        model.SetDirty(key, true);
        break;
      case kClearDirty: {
        bool was = model.IsDirty(key);
        model.SetDirty(key, false);
        ASSERT_EQ(cache.ClearDirty(key), was) << "step " << step;
        break;
      }
      case kFlush: {
        std::vector<uint64_t> got;
        cache.FlushDirty([&got](uint64_t k) { got.push_back(k); });
        std::vector<uint64_t> want = model.FlushDirty();
        ASSERT_EQ(got, want) << "step " << step;
        flushed += got.size();
        break;
      }
      case kClear:
        cache.Clear();
        model.Clear();
        break;
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
    ASSERT_LE(cache.size(), capacity) << "step " << step;
    for (uint64_t k : universe) {
      ASSERT_EQ(cache.Contains(k), model.Contains(k))
          << "step " << step << " key " << k;
      ASSERT_EQ(cache.IsDirty(k), model.IsDirty(k))
          << "step " << step << " key " << k;
    }
  }
  // The mix did real work: pages were evicted and flushed.
  EXPECT_GT(evictions, 0u);
  if (capacity > 0) {
    EXPECT_GT(flushed, 0u);
  }
}

TEST(LruPageCacheDifferentialTest, RandomOpsMatchListModel) {
  for (uint32_t capacity : {0u, 1u, 2u, 7u, 64u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      RunDifferential(capacity, seed, 4000);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(LruPageCacheDifferentialTest, FlushDirtyVisitsLeastRecentlyUsedFirst) {
  LruPageCache cache(8);
  for (uint64_t k = 1; k <= 6; ++k) cache.Insert(k, /*dirty=*/k % 2 == 0);
  // Recency, most recent first: 6 5 4 3 2 1. Touch 2 and dirty 3 and 5:
  // 2 6 5 4 3 1, dirty {2, 3, 4, 5, 6}.
  ASSERT_TRUE(cache.Touch(2));
  cache.MarkDirty(3);
  cache.MarkDirty(5);
  std::vector<uint64_t> order;
  cache.FlushDirty([&order](uint64_t k) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 4, 5, 6, 2}));
  for (uint64_t k = 1; k <= 6; ++k) EXPECT_FALSE(cache.IsDirty(k)) << k;
  // Nothing left dirty: a second flush visits nothing.
  order.clear();
  cache.FlushDirty([&order](uint64_t k) { order.push_back(k); });
  EXPECT_TRUE(order.empty());
}

TEST(LruPageCacheDifferentialTest, RetouchingTheMruPageKeepsTheOrder) {
  LruPageCache cache(3);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);
  // 3 is MRU; re-touching it must not disturb the order below it.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(cache.Touch(3));
  LruPageCache::Evicted ev = cache.Insert(4);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.key, 1u);
  ev = cache.Insert(5);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.key, 2u);
  // 5 4 3: erasing the MRU page hands MRU to the next one.
  EXPECT_FALSE(cache.Erase(5));
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_FALSE(cache.Touch(5));
  cache.MarkDirty(4);
  EXPECT_TRUE(cache.IsDirty(4));
  ev = cache.Insert(6);
  EXPECT_FALSE(ev.valid);
  ev = cache.Insert(7);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.key, 3u);
}

}  // namespace
}  // namespace treebench
