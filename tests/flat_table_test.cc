// Tests for the flat index backend (src/index/flat_table.*): the
// open-addressing table itself (scalar vs batched-pipelined probes,
// backward-shift deletion, rehash growth), gram packing, and — the
// guarantee the backend is sold on — byte-identical labels and merge
// sequences between ordered and flat across thread counts, kernels,
// and the pair-sim cache (see docs/performance.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/hera.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "index/flat_table.h"
#include "index/value_pair_index.h"
#include "text/qgram.h"

namespace hera {
namespace {

// ------------------------------------------------------------ FlatTable

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
  EXPECT_GT(t.rehashes(), 0u);
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

// Batched probes must agree with scalar probes at every pipeline depth
// and at every load-factor step (the batch is checked after each
// insertion wave, so it sees the table right before and after rehash).
TEST(FlatTableTest, FindBatchMatchesScalarAtEveryLoadStep) {
  for (size_t depth : {1u, 4u, 8u, 16u}) {
    Rng rng(99 + depth);
    FlatTable t(0, depth);
    ASSERT_EQ(t.pipeline_depth(), depth);
    std::vector<uint64_t> present;
    for (int wave = 0; wave < 60; ++wave) {
      for (int i = 0; i < 17; ++i) {
        uint64_t k = rng.Next() >> 1;
        *t.FindOrInsert(k, k + 1) = k + 1;
        present.push_back(k);
      }
      // Query a mix of present and absent keys, batched vs scalar.
      std::vector<uint64_t> queries;
      for (int i = 0; i < 40; ++i) {
        queries.push_back(rng.Uniform(2) == 0
                              ? present[rng.Uniform(present.size())]
                              : (rng.Next() >> 1));
      }
      std::vector<const uint64_t*> batch(queries.size());
      std::as_const(t).FindBatch(queries, batch);
      for (size_t i = 0; i < queries.size(); ++i) {
        const uint64_t* scalar = std::as_const(t).Find(queries[i]);
        EXPECT_EQ(batch[i], scalar) << "depth " << depth << " wave " << wave;
      }
    }
    EXPECT_GT(t.batched_probes(), 0u);
  }
}

TEST(FlatTableTest, FindOrInsertBatchMatchesScalarSemantics) {
  for (size_t depth : {1u, 4u, 8u, 16u}) {
    Rng rng(7 + depth);
    FlatTable batched(0, depth);
    FlatTable scalar(0, depth);
    for (int wave = 0; wave < 40; ++wave) {
      std::vector<uint64_t> keys;
      for (int i = 0; i < 23; ++i) keys.push_back(rng.Uniform(500));
      std::vector<uint64_t*> slots(keys.size());
      batched.FindOrInsertBatch(keys, 0, slots);
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(slots[i], nullptr);
        *slots[i] += 1;  // Count occurrences, like the gram dictionary.
        *scalar.FindOrInsert(keys[i], 0) += 1;
      }
    }
    EXPECT_EQ(batched.size(), scalar.size());
    batched.ForEach([&](uint64_t k, uint64_t v) {
      const uint64_t* ref = scalar.Find(k);
      ASSERT_NE(ref, nullptr) << k;
      EXPECT_EQ(v, *ref) << k;
    });
  }
}

TEST(FlatTableTest, FindOrInsertBatchDuplicateKeysShareOneSlot) {
  FlatTable t;
  std::vector<uint64_t> keys = {5, 9, 5, 5, 9, 1};
  std::vector<uint64_t*> slots(keys.size());
  t.FindOrInsertBatch(keys, 100, slots);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(slots[0], slots[2]);
  EXPECT_EQ(slots[0], slots[3]);
  EXPECT_EQ(slots[1], slots[4]);
  EXPECT_NE(slots[0], slots[1]);
  for (uint64_t* s : slots) EXPECT_EQ(*s, 100u);
}

TEST(FlatTableTest, BatchOnEmptyTableReturnsAllNull) {
  FlatTable t;
  std::vector<uint64_t> keys = {1, 2, 3};
  std::vector<uint64_t*> out(3, reinterpret_cast<uint64_t*>(0x1));
  t.FindBatch(keys, out);
  for (uint64_t* p : out) EXPECT_EQ(p, nullptr);
}

TEST(FlatTableTest, BackendNames) {
  EXPECT_STREQ(IndexBackendToString(IndexBackend::kOrdered), "ordered");
  EXPECT_STREQ(IndexBackendToString(IndexBackend::kFlat), "flat");
  IndexBackend b = IndexBackend::kOrdered;
  EXPECT_TRUE(IndexBackendFromString("flat", &b));
  EXPECT_EQ(b, IndexBackend::kFlat);
  EXPECT_TRUE(IndexBackendFromString("ordered", &b));
  EXPECT_EQ(b, IndexBackend::kOrdered);
  EXPECT_FALSE(IndexBackendFromString("btree", &b));
  EXPECT_EQ(b, IndexBackend::kOrdered);  // Untouched on failure.
}

// ------------------------------------------------------------- PackGram

TEST(PackGramTest, RoundTripsEveryLengthUpToMax) {
  Rng rng(31);
  for (size_t len = 0; len <= kMaxPackedGramLen; ++len) {
    for (int trial = 0; trial < 50; ++trial) {
      std::string s;
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.Uniform(256)));
      }
      EXPECT_EQ(UnpackGram(PackGram(s)), s);
    }
  }
}

TEST(PackGramTest, InjectiveAcrossLengths) {
  // "a" vs "a\0" vs "\0a" must all pack differently (the length tag
  // disambiguates embedded NULs and prefixes).
  std::string a = "a";
  std::string a0("a\0", 2);
  std::string zero_a("\0a", 2);
  EXPECT_NE(PackGram(a), PackGram(a0));
  EXPECT_NE(PackGram(a), PackGram(zero_a));
  EXPECT_NE(PackGram(a0), PackGram(zero_a));
}

// ------------------------------------------------------ QgramDictionary

TEST(QgramDictionaryTest, FlatAssignsIdenticalIdsToOrdered) {
  Rng rng(55);
  std::vector<std::string> corpus;
  for (int i = 0; i < 300; ++i) {
    std::string s;
    size_t len = 1 + rng.Uniform(20);
    for (size_t c = 0; c < len; ++c) {
      s.push_back("abcdefgh "[rng.Uniform(9)]);  // Small alphabet: shared grams.
    }
    corpus.push_back(std::move(s));
  }
  for (int q : {2, 3}) {
    QgramDictionary ordered(q, IndexBackend::kOrdered);
    QgramDictionary flat(q, IndexBackend::kFlat);
    ASSERT_EQ(flat.backend(), IndexBackend::kFlat);
    for (const std::string& s : corpus) {
      ordered.Add(s);
      flat.Add(s);
    }
    ordered.Freeze();
    flat.Freeze();
    EXPECT_EQ(ordered.vocab_size(), flat.vocab_size());
    // Encode both seen and unseen strings: id streams must match
    // exactly, including the fresh ids minted for unknown grams.
    for (const std::string& s : corpus) {
      EXPECT_EQ(ordered.Encode(s), flat.Encode(s)) << s;
    }
    for (int i = 0; i < 50; ++i) {
      std::string s;
      size_t len = 1 + rng.Uniform(12);
      for (size_t c = 0; c < len; ++c) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      EXPECT_EQ(ordered.Encode(s), flat.Encode(s)) << s;
    }
    EXPECT_GT(flat.flat_batched_probes(), 0u);
  }
}

TEST(QgramDictionaryTest, FlatFallsBackToOrderedForLongGrams) {
  QgramDictionary dict(static_cast<int>(kMaxPackedGramLen) + 1,
                       IndexBackend::kFlat);
  EXPECT_EQ(dict.backend(), IndexBackend::kOrdered);
  dict.Add("abcdefghij");
  dict.Freeze();
  EXPECT_FALSE(dict.Encode("abcdefghij").empty());
}

// ------------------------------------------------------- ValuePairIndex

ValuePair MakePair(uint32_t r1, uint32_t f1, uint32_t v1, uint32_t r2,
                   uint32_t f2, uint32_t v2, double sim) {
  return {ValueLabel{r1, f1, v1}, ValueLabel{r2, f2, v2}, sim};
}

std::vector<ValuePair> RandomPairs(Rng* rng, size_t n, uint32_t num_records) {
  std::vector<ValuePair> pairs;
  while (pairs.size() < n) {
    uint32_t r1 = static_cast<uint32_t>(rng->Uniform(num_records));
    uint32_t r2 = static_cast<uint32_t>(rng->Uniform(num_records));
    if (r1 == r2) continue;
    pairs.push_back(MakePair(r1, static_cast<uint32_t>(rng->Uniform(3)),
                             static_cast<uint32_t>(rng->Uniform(2)), r2,
                             static_cast<uint32_t>(rng->Uniform(3)),
                             static_cast<uint32_t>(rng->Uniform(2)),
                             static_cast<double>(rng->Uniform(100)) / 100.0));
  }
  return pairs;
}

bool SameDump(const std::vector<IndexedPair>& a,
              const std::vector<IndexedPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pid != b[i].pid || a[i].sim != b[i].sim ||
        !(a[i].a == b[i].a) || !(a[i].b == b[i].b)) {
      return false;
    }
  }
  return true;
}

TEST(ValuePairIndexFlatTest, FlatMirrorsOrderedThroughBuildAndMerges) {
  Rng rng(2024);
  ValuePairIndex ordered;
  ValuePairIndex flat;
  flat.SetBackend(IndexBackend::kFlat);
  EXPECT_EQ(flat.backend(), IndexBackend::kFlat);
  const uint32_t num_records = 40;
  std::vector<ValuePair> pairs = RandomPairs(&rng, 400, num_records);
  ordered.Build(pairs);
  flat.Build(pairs);
  ASSERT_TRUE(ordered.CheckInvariants());
  ASSERT_TRUE(flat.CheckInvariants());
  EXPECT_TRUE(SameDump(ordered.Dump(), flat.Dump()));

  // Merge a few record pairs, identically on both. The remap must cover
  // every value of the two records that appears in the index; build it
  // from the ordered dump (both hold the same pairs).
  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < num_records; ++r) live.push_back(r);
  for (int round = 0; round < 10; ++round) {
    uint32_t i = live[rng.Uniform(live.size())];
    uint32_t j = live[rng.Uniform(live.size())];
    if (i == j) continue;
    if (i > j) std::swap(i, j);
    // Relabel every (rid in {i,j}) value onto record i, bumping vid by
    // a disambiguating offset per source record.
    std::vector<std::pair<ValueLabel, ValueLabel>> remap;
    std::vector<ValueLabel> seen;
    for (const IndexedPair& p : ordered.Dump()) {
      for (const ValueLabel& l : {p.a, p.b}) {
        if (l.rid != i && l.rid != j) continue;
        if (std::find(seen.begin(), seen.end(), l) != seen.end()) continue;
        seen.push_back(l);
        ValueLabel target{i, l.fid, static_cast<uint32_t>(
                                        l.vid * 2 + (l.rid == j ? 1 : 0))};
        remap.emplace_back(l, target);
      }
    }
    ordered.ApplyMerge(i, j, i, remap);
    flat.ApplyMerge(i, j, i, remap);
    live.erase(std::remove(live.begin(), live.end(), j), live.end());
    ASSERT_TRUE(ordered.CheckInvariants()) << "round " << round;
    ASSERT_TRUE(flat.CheckInvariants()) << "round " << round;
    ASSERT_TRUE(SameDump(ordered.Dump(), flat.Dump())) << "round " << round;
  }
}

// Regression for the move-assignment bug: the hand-written member-wise
// move had to list every field and silently dropped newly added ones.
// With MovableAtomicCounter the moves are defaulted — moving must carry
// *all* state, including counters and the recorded backend.
TEST(ValuePairIndexFlatTest, MoveCarriesFullState) {
  for (IndexBackend backend : {IndexBackend::kOrdered, IndexBackend::kFlat}) {
    Rng rng(5);
    ValuePairIndex index;
    index.SetBackend(backend);
    index.SetCeilings(100, 0);
    index.Build(RandomPairs(&rng, 150, 20));  // 50 shed by the ceiling.
    (void)index.PairsFor(1, 2);
    (void)index.PairsFor(3, 4);
    const auto dump = index.Dump();
    const size_t size = index.size();
    const size_t shed = index.shed_pairs();
    const size_t probes = index.probe_count();
    const uint64_t next_pid = index.next_pid();

    ValuePairIndex moved(std::move(index));
    EXPECT_EQ(moved.size(), size);
    EXPECT_EQ(moved.shed_pairs(), shed);
    EXPECT_EQ(moved.probe_count(), probes);
    EXPECT_EQ(moved.next_pid(), next_pid);
    EXPECT_TRUE(moved.CheckInvariants());
    EXPECT_TRUE(SameDump(moved.Dump(), dump));

    ValuePairIndex assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), size);
    EXPECT_EQ(assigned.shed_pairs(), shed);
    EXPECT_EQ(assigned.probe_count(), probes);
    EXPECT_EQ(assigned.backend(), backend);
    EXPECT_TRUE(assigned.CheckInvariants());
    EXPECT_TRUE(SameDump(assigned.Dump(), dump));
    // The moved-to index keeps working: probes and merges still land.
    EXPECT_EQ(assigned.probe_count(), probes);
    (void)assigned.PairsFor(0, 1);
    EXPECT_EQ(assigned.probe_count(), probes + 1);
  }
}

TEST(ValuePairIndexFlatTest, RestoreStateUnderFlatBackend) {
  Rng rng(88);
  ValuePairIndex index;
  index.SetBackend(IndexBackend::kFlat);
  index.Build(RandomPairs(&rng, 200, 25));
  const auto dump = index.Dump();
  const uint64_t next_pid = index.next_pid();

  ValuePairIndex restored;
  restored.SetBackend(IndexBackend::kFlat);
  restored.RestoreState(dump, next_pid, 3, 4, 17);
  EXPECT_TRUE(restored.CheckInvariants());
  EXPECT_TRUE(SameDump(restored.Dump(), dump));
  EXPECT_EQ(restored.shed_pairs(), 3u);
  EXPECT_EQ(restored.shed_posting_entries(), 4u);
  EXPECT_EQ(restored.probe_count(), 17u);
  EXPECT_EQ(restored.next_pid(), next_pid);
}

// --------------------------------------------- end-to-end determinism

Dataset MovieData(size_t records, uint64_t seed) {
  MovieGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 5;
  config.seed = seed;
  return GenerateMovieDataset(config);
}

Dataset PublicationData(size_t records, uint64_t seed) {
  PublicationGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 4;
  config.seed = seed;
  return GeneratePublicationDataset(config);
}

// The tentpole guarantee: the flat backend changes probe cost only.
// Labels AND the merge sequence must be byte-identical to the ordered
// backend at every thread count, with and without the encoded kernels
// and the pair-sim cache.
TEST(FlatBackendDeterminismTest, JoinPairsIdenticalOrderedVsFlat) {
  Dataset ds = MovieData(150, 13);
  HeraOptions ordered_opts;
  auto ordered = ComputeSimilarValuePairs(ds, ordered_opts);
  ASSERT_TRUE(ordered.ok());
  ASSERT_FALSE(ordered->empty());
  for (size_t threads : {0u, 4u}) {
    HeraOptions opts;
    opts.index_backend = IndexBackend::kFlat;
    opts.num_threads = threads;
    auto flat = ComputeSimilarValuePairs(ds, opts);
    ASSERT_TRUE(flat.ok());
    ASSERT_EQ(ordered->size(), flat->size()) << "threads=" << threads;
    for (size_t i = 0; i < ordered->size(); ++i) {
      EXPECT_TRUE((*ordered)[i].a == (*flat)[i].a);
      EXPECT_TRUE((*ordered)[i].b == (*flat)[i].b);
      EXPECT_DOUBLE_EQ((*ordered)[i].sim, (*flat)[i].sim);
    }
  }
}

TEST(FlatBackendDeterminismTest, ResolutionIdenticalOrderedVsFlat) {
  for (bool movies : {true, false}) {
    Dataset ds = movies ? MovieData(120, 21) : PublicationData(100, 9);
    for (bool kernels : {true, false}) {
      for (bool pair_cache : {true, false}) {
        HeraOptions base;
        base.use_encoded_kernels = kernels;
        base.enable_pair_sim_cache = pair_cache;
        base.num_threads = 0;
        auto want = Hera(base).Run(ds);
        ASSERT_TRUE(want.ok());
        ASSERT_GT(want->stats.merges, 0u);
        for (size_t threads : {0u, 4u, 8u}) {
          HeraOptions opts = base;
          opts.index_backend = IndexBackend::kFlat;
          opts.num_threads = threads;
          auto got = Hera(opts).Run(ds);
          ASSERT_TRUE(got.ok());
          const std::string what =
              std::string(movies ? "movies" : "publications") +
              " kernels=" + std::to_string(kernels) +
              " cache=" + std::to_string(pair_cache) +
              " threads=" + std::to_string(threads);
          EXPECT_EQ(want->entity_of, got->entity_of) << what;
          EXPECT_EQ(want->stats.merge_sequence, got->stats.merge_sequence)
              << what;
        }
      }
    }
  }
}

TEST(FlatBackendDeterminismTest, PipelineDepthDoesNotChangeResults) {
  Dataset ds = MovieData(100, 5);
  HeraOptions base;
  base.index_backend = IndexBackend::kFlat;
  auto want = Hera(base).Run(ds);
  ASSERT_TRUE(want.ok());
  for (size_t depth : {1u, 2u, 32u}) {
    HeraOptions opts = base;
    opts.flat_pipeline_depth = depth;
    auto got = Hera(opts).Run(ds);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want->entity_of, got->entity_of) << "depth=" << depth;
    EXPECT_EQ(want->stats.merge_sequence, got->stats.merge_sequence)
        << "depth=" << depth;
  }
}

TEST(FlatBackendDeterminismTest, InvalidPipelineDepthRejected) {
  Dataset ds = MovieData(40, 2);
  HeraOptions opts;
  opts.flat_pipeline_depth = 0;
  EXPECT_FALSE(Hera(opts).Run(ds).ok());
  opts.flat_pipeline_depth = FlatTable::kMaxPipelineDepth + 1;
  EXPECT_FALSE(Hera(opts).Run(ds).ok());
}

}  // namespace
}  // namespace hera
