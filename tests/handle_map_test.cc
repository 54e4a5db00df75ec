#include "src/objects/handle_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/storage/rid.h"

namespace treebench {
namespace {

// A fresh map allocates this many slots on its first Insert and grows when
// an insert would push the load above 1/2, so up to 8 keys share 16 slots.
constexpr size_t kFirstSlots = 16;
constexpr size_t kFirstSlotsMaxKeys = kFirstSlots / 2;

// Home slot of `key` in a 16-slot table: mirrors HandleMap's multiplicative
// hash (the top 4 bits of key * 2^64/phi).
size_t HomeIn16(uint64_t key) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 60);
}

// The first `n` keys (counting up from `from`) whose home slot is `home`.
std::vector<uint64_t> KeysWithHome(size_t home, size_t n, uint64_t from = 1) {
  std::vector<uint64_t> keys;
  for (uint64_t k = from; keys.size() < n; ++k) {
    if (HomeIn16(k) == home) keys.push_back(k);
  }
  return keys;
}

std::unique_ptr<ObjectHandle> MakeHandle(uint64_t key) {
  auto h = std::make_unique<ObjectHandle>();
  h->rid = Rid::FromPacked(key);
  return h;
}

// Every key in `present` must be found with its own handle; every key in
// `absent` must miss.
void ExpectContents(const HandleMap& map,
                    const std::unordered_map<uint64_t, ObjectHandle*>& present,
                    const std::vector<uint64_t>& absent) {
  EXPECT_EQ(map.size(), present.size());
  for (const auto& [key, ptr] : present) {
    EXPECT_EQ(map.Find(key), ptr) << "key " << key;
  }
  for (uint64_t key : absent) {
    if (present.count(key) == 0) {
      EXPECT_EQ(map.Find(key), nullptr) << "key " << key;
    }
  }
}

TEST(HandleMapTest, EmptyMapFindsAndErasesNothing) {
  HandleMap map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(42), nullptr);
  EXPECT_FALSE(map.Erase(42));
  map.clear();
  EXPECT_EQ(map.size(), 0u);
}

TEST(HandleMapTest, InsertFindEraseRoundTrip) {
  HandleMap map;
  uint64_t key = Rid(3, 17, 5).Packed();
  ObjectHandle* h = map.Insert(key, MakeHandle(key));
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->rid, Rid(3, 17, 5));
  EXPECT_EQ(map.Find(key), h);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Erase(key));
  EXPECT_FALSE(map.Erase(key));
  EXPECT_EQ(map.Find(key), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(HandleMapTest, RandomOpsMatchUnorderedMapAfterEveryOp) {
  // Keys shaped like packed rids over a small universe, so inserts, hits,
  // misses and erasures of the same keys all recur many times and the
  // table grows through several sizes.
  Lrand48 rng(20240611);
  std::vector<uint64_t> universe;
  for (int i = 0; i < 512; ++i) {
    universe.push_back(Rid(static_cast<uint16_t>(rng.Uniform(4)),
                           static_cast<uint32_t>(rng.Uniform(300)),
                           static_cast<uint16_t>(rng.Uniform(40)))
                           .Packed());
  }
  HandleMap map;
  std::unordered_map<uint64_t, ObjectHandle*> model;
  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    uint64_t key = universe[rng.Uniform(universe.size())];
    // Bias toward inserts early and erases late so the size sweeps up to
    // the whole universe and back down.
    uint64_t insert_pct = op < kOps / 2 ? 65 : 35;
    uint64_t roll = rng.Uniform(100);
    if (roll < insert_pct) {
      if (model.count(key) == 0) {
        ObjectHandle* h = map.Insert(key, MakeHandle(key));
        h->refcount = static_cast<uint32_t>(op);
        model[key] = h;
      }
    } else if (roll < 90) {
      bool erased = map.Erase(key);
      ASSERT_EQ(erased, model.erase(key) == 1) << "op " << op;
    } else {
      auto it = model.find(key);
      ASSERT_EQ(map.Find(key), it == model.end() ? nullptr : it->second)
          << "op " << op;
    }
    // Full comparison: every key of the universe, present or absent.
    ASSERT_EQ(map.size(), model.size()) << "op " << op;
    for (uint64_t k : universe) {
      auto it = model.find(k);
      ObjectHandle* found = map.Find(k);
      ASSERT_EQ(found, it == model.end() ? nullptr : it->second)
          << "op " << op << " key " << k;
      if (found != nullptr) {
        ASSERT_EQ(found->rid.Packed(), k);
      }
    }
  }
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (uint64_t k : universe) EXPECT_EQ(map.Find(k), nullptr);
}

TEST(HandleMapTest, SameHomeCollisionsWrapAroundTheSlotArray) {
  // Eight keys all homed on the last slot of the 16-slot array fill it
  // and wrap into slots 0..6.
  std::vector<uint64_t> keys =
      KeysWithHome(kFirstSlots - 1, kFirstSlotsMaxKeys);
  HandleMap map;
  std::unordered_map<uint64_t, ObjectHandle*> present;
  for (uint64_t k : keys) present[k] = map.Insert(k, MakeHandle(k));
  std::vector<uint64_t> misses =
      KeysWithHome(kFirstSlots - 1, 4, keys.back() + 1);
  for (uint64_t k : KeysWithHome(0, 4)) misses.push_back(k);
  ExpectContents(map, present, misses);

  // Erase from the front of the run: each erase shifts the whole wrapped
  // remainder back by one slot.
  for (uint64_t k : keys) {
    ASSERT_TRUE(map.Erase(k));
    present.erase(k);
    ExpectContents(map, present, keys);
  }
}

TEST(HandleMapTest, EraseInsideDisplacedClusterShiftsBack) {
  // A cluster mixing homes 14, 15, 0 and 1 that straddles the end of the
  // slot array. Each entry is erased in turn from every position of the
  // run, in several orders, and after every erase all survivors must still
  // be found — an entry left behind the hole (or moved in front of its own
  // home) would be lost.
  std::vector<uint64_t> cluster;
  for (size_t home : {14u, 15u, 15u, 0u, 14u, 1u, 0u, 15u}) {
    uint64_t from = cluster.empty() ? 1 : cluster.back() + 1;
    for (uint64_t k : KeysWithHome(home, 1, from)) cluster.push_back(k);
  }
  ASSERT_EQ(cluster.size(), kFirstSlotsMaxKeys);

  Lrand48 rng(7);
  for (int round = 0; round < 64; ++round) {
    std::vector<uint64_t> insert_order = cluster;
    std::vector<uint64_t> erase_order = cluster;
    rng.Shuffle(&insert_order);
    rng.Shuffle(&erase_order);
    HandleMap map;
    std::unordered_map<uint64_t, ObjectHandle*> present;
    for (uint64_t k : insert_order) present[k] = map.Insert(k, MakeHandle(k));
    ExpectContents(map, present, {});
    for (uint64_t k : erase_order) {
      ASSERT_TRUE(map.Erase(k));
      present.erase(k);
      ExpectContents(map, present, cluster);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(HandleMapTest, EntryAtItsHomeStaysPutWhenItsPredecessorIsErased) {
  // a sits at its home 3; b (home 4) sits at its own home right behind it.
  // Erasing a must not pull b into slot 3, or a later probe for b from
  // slot 4 would hit the empty slot and miss.
  uint64_t a = KeysWithHome(3, 1)[0];
  uint64_t b = KeysWithHome(4, 1)[0];
  HandleMap map;
  map.Insert(a, MakeHandle(a));
  ObjectHandle* hb = map.Insert(b, MakeHandle(b));
  ASSERT_TRUE(map.Erase(a));
  EXPECT_EQ(map.Find(b), hb);
  uint64_t c = KeysWithHome(3, 1, a + 1)[0];
  ObjectHandle* hc = map.Insert(c, MakeHandle(c));
  EXPECT_EQ(map.Find(b), hb);
  EXPECT_EQ(map.Find(c), hc);
}

TEST(HandleMapTest, HandlePointersSurviveGrowthAndOtherErasures) {
  HandleMap map;
  std::unordered_map<uint64_t, ObjectHandle*> present;
  // 20000 keys take the table through 12 doublings, from 16 to 65536 slots.
  for (uint64_t i = 0; i < 20000; ++i) {
    uint64_t key = Rid(1, static_cast<uint32_t>(i / 37),
                       static_cast<uint16_t>(i % 37))
                       .Packed();
    ObjectHandle* h = map.Insert(key, MakeHandle(key));
    h->refcount = static_cast<uint32_t>(i + 1);
    present[key] = h;
  }
  ExpectContents(map, present, {});
  // Erase every third entry; the survivors keep their addresses too.
  uint64_t i = 0;
  for (auto it = present.begin(); it != present.end(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(map.Erase(it->first));
      it = present.erase(it);
    } else {
      ++it;
    }
  }
  ExpectContents(map, present, {});
  for (const auto& [key, ptr] : present) {
    EXPECT_EQ(ptr->rid.Packed(), key);
    EXPECT_GT(ptr->refcount, 0u);
  }
}

TEST(HandleMapTest, ClearDropsEverythingAndTheMapRefills) {
  HandleMap map;
  for (uint64_t k = 1; k <= 100; ++k) map.Insert(k, MakeHandle(k));
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (uint64_t k = 1; k <= 100; ++k) EXPECT_EQ(map.Find(k), nullptr);
  std::unordered_map<uint64_t, ObjectHandle*> present;
  for (uint64_t k = 50; k <= 300; ++k) {
    present[k] = map.Insert(k, MakeHandle(k));
  }
  ExpectContents(map, present, {1, 2, 3, 49, 301});
}

}  // namespace
}  // namespace treebench
