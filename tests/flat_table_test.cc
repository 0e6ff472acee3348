// Tests for FlatTable (src/index/flat_table.*), the value-pair index's
// group map: insert/find/erase, backward-shift deletion, rehash growth,
// and a fuzz run against std::unordered_map.

#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "index/flat_table.h"

namespace hera {
namespace {

TEST(FlatTableTest, InsertFindErase) {
  FlatTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(42), nullptr);
  *t.FindOrInsert(42, 7) = 7;
  ASSERT_NE(t.Find(42), nullptr);
  EXPECT_EQ(*t.Find(42), 7u);
  EXPECT_EQ(t.size(), 1u);
  // FindOrInsert on a present key returns the existing slot.
  EXPECT_EQ(*t.FindOrInsert(42, 99), 7u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Erase(42));
  EXPECT_FALSE(t.Erase(42));
  EXPECT_EQ(t.Find(42), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlatTableTest, RehashGrowthKeepsEveryEntry) {
  FlatTable t;
  const size_t n = 5000;
  for (uint64_t k = 0; k < n; ++k) *t.FindOrInsert(k * 2654435761ull, 0) = k;
  EXPECT_EQ(t.size(), n);
  // Max load factor 3/4 held through growth.
  EXPECT_LE(t.size() * 4, t.capacity() * 3);
  for (uint64_t k = 0; k < n; ++k) {
    const uint64_t* v = std::as_const(t).Find(k * 2654435761ull);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatTableTest, ClearKeepsCapacity) {
  FlatTable t;
  for (uint64_t k = 0; k < 100; ++k) *t.FindOrInsert(k, 0) = k;
  const size_t cap = t.capacity();
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), cap);
  EXPECT_EQ(t.Find(5), nullptr);
  *t.FindOrInsert(5, 1) = 1;
  EXPECT_EQ(*t.Find(5), 1u);
}

// Fuzz the table against std::unordered_map through a random
// insert/erase/lookup workload — this drives the load factor through
// every step up to the rehash threshold and back down, exercising
// backward-shift deletion inside long collision runs (keys drawn from
// a small universe so probe chains overlap).
TEST(FlatTableTest, FuzzAgainstUnorderedMapReference) {
  Rng rng(1234);
  FlatTable t;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = rng.Uniform(700);  // Small universe: heavy collisions.
    switch (rng.Uniform(3)) {
      case 0: {  // Insert / overwrite.
        uint64_t val = rng.Next() >> 1;
        *t.FindOrInsert(key, val) = val;
        ref[key] = val;
        break;
      }
      case 1: {  // Erase.
        EXPECT_EQ(t.Erase(key), ref.erase(key) > 0) << "op " << op;
        break;
      }
      default: {  // Lookup.
        const uint64_t* v = t.Find(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(v, nullptr) << "op " << op;
        } else {
          ASSERT_NE(v, nullptr) << "op " << op;
          EXPECT_EQ(*v, it->second) << "op " << op;
        }
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  // Full sweep at the end: contents agree exactly.
  size_t seen = 0;
  t.ForEach([&](uint64_t k, uint64_t v) {
    ++seen;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << k;
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(seen, ref.size());
}

}  // namespace
}  // namespace hera
