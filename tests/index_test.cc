// Tests for src/index: value-pair index ordering (Definition 6), range
// lookups, merge maintenance (Section III-B2, Proposition 3), and the
// bound computation (Algorithm 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <ranges>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/hera.h"
#include "data/movie_generator.h"
#include "index/bounds.h"
#include "index/value_pair_index.h"
#include "record/record.h"
#include "record/super_record.h"

namespace hera {
namespace {

ValuePair MakePair(uint32_t r1, uint32_t f1, uint32_t v1, uint32_t r2,
                   uint32_t f2, uint32_t v2, double sim) {
  return {ValueLabel{r1, f1, v1}, ValueLabel{r2, f2, v2}, sim};
}

TEST(ValuePairIndexTest, BuildNormalizesRidOrder) {
  ValuePairIndex index;
  index.Build({MakePair(5, 0, 0, 2, 1, 0, 0.7)});
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a.rid, 2u);
  EXPECT_EQ(pairs[0].b.rid, 5u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ValuePairIndexTest, SortOrderRid1Rid2SimDesc) {
  ValuePairIndex index;
  index.Build({
      MakePair(1, 0, 0, 3, 0, 0, 0.5),
      MakePair(0, 0, 0, 2, 0, 0, 0.9),
      MakePair(1, 0, 0, 2, 0, 0, 0.6),
      MakePair(1, 1, 0, 3, 1, 0, 0.8),  // Same group as first, higher sim.
  });
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[0].a.rid, 0u);  // (0,2) first.
  EXPECT_EQ(pairs[1].a.rid, 1u);  // Then (1,2).
  EXPECT_EQ(pairs[1].b.rid, 2u);
  // Group (1,3): descending similarity.
  EXPECT_EQ(pairs[2].b.rid, 3u);
  EXPECT_DOUBLE_EQ(pairs[2].sim, 0.8);
  EXPECT_DOUBLE_EQ(pairs[3].sim, 0.5);
}

TEST(ValuePairIndexTest, PairsForReturnsGroupDescending) {
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 1, 0, 0, 0.4),
      MakePair(0, 1, 0, 1, 1, 0, 0.9),
      MakePair(0, 2, 0, 2, 0, 0, 0.5),
  });
  auto pairs = index.PairsFor(0, 1);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 0.9);
  EXPECT_DOUBLE_EQ(pairs[1].sim, 0.4);
  // Argument order is irrelevant.
  EXPECT_EQ(index.PairsFor(1, 0).size(), 2u);
  // Missing group.
  EXPECT_TRUE(index.PairsFor(1, 2).empty());
}

TEST(ValuePairIndexTest, ForEachGroupVisitsAllGroupsInOrder) {
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 1, 0, 0, 0.5),
      MakePair(0, 0, 0, 2, 0, 0, 0.5),
      MakePair(1, 0, 0, 2, 0, 0, 0.5),
      MakePair(1, 1, 0, 2, 1, 0, 0.7),
  });
  std::vector<std::pair<uint32_t, uint32_t>> groups;
  std::vector<size_t> sizes;
  index.ForEachGroup([&](uint32_t a, uint32_t b,
                         const std::vector<IndexedPair>& pairs) {
    groups.emplace_back(a, b);
    sizes.push_back(pairs.size());
  });
  EXPECT_EQ(groups, (std::vector<std::pair<uint32_t, uint32_t>>{
                        {0, 1}, {0, 2}, {1, 2}}));
  EXPECT_EQ(sizes, (std::vector<size_t>{1, 1, 2}));
}

TEST(ValuePairIndexTest, ApplyMergeDeletesIntraRecordPairs) {
  // Pairs between the two merged records must disappear (delete step).
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 1, 0, 0, 0.9),  // Becomes intra after merge(0,1).
      MakePair(0, 1, 0, 2, 0, 0, 0.8),
  });
  std::vector<std::pair<ValueLabel, ValueLabel>> remap = {
      {{0, 0, 0}, {0, 0, 0}},
      {{0, 1, 0}, {0, 1, 0}},
      {{1, 0, 0}, {0, 0, 1}},  // r1's value joins field 0 of merged R0.
  };
  index.ApplyMerge(0, 1, 0, remap);
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a.rid, 0u);
  EXPECT_EQ(pairs[0].b.rid, 2u);
  EXPECT_TRUE(index.CheckInvariants());
}

TEST(ValuePairIndexTest, ApplyMergeRewritesLabelsAndReorders) {
  // Fig 6: merging r1 and r6 rewrites rid 6 labels to rid 1 and the
  // affected pairs re-sort into their new groups.
  ValuePairIndex index;
  index.Build({
      MakePair(2, 0, 0, 6, 1, 0, 0.95),  // (2,6) -> becomes (1,2) group.
      MakePair(1, 0, 0, 6, 0, 0, 1.0),   // (1,6) -> intra, deleted.
      MakePair(4, 0, 0, 6, 2, 0, 0.7),   // (4,6) -> (1,4).
  });
  std::vector<std::pair<ValueLabel, ValueLabel>> remap = {
      {{1, 0, 0}, {1, 0, 0}},
      {{6, 0, 0}, {1, 0, 0}},  // Dedup onto r1's value.
      {{6, 1, 0}, {1, 5, 0}},
      {{6, 2, 0}, {1, 6, 0}},
  };
  index.ApplyMerge(1, 6, 1, remap);
  EXPECT_TRUE(index.CheckInvariants());
  auto pairs = index.Dump();
  ASSERT_EQ(pairs.size(), 2u);
  // New sort order: (1,2) before (1,4).
  EXPECT_EQ(pairs[0].a.rid, 1u);
  EXPECT_EQ(pairs[0].b.rid, 2u);
  EXPECT_EQ(pairs[0].a.fid, 5u);  // Rewritten label.
  EXPECT_EQ(pairs[1].b.rid, 4u);
  EXPECT_EQ(pairs[1].a.fid, 6u);
}

TEST(ValuePairIndexTest, Proposition3GroupsCombineAfterMerges) {
  // After merging (0,1) and (2,3), all surviving cross pairs live in
  // the single group (0, 2): V_{f(i) f(j)} ⊆ V.
  ValuePairIndex index;
  index.Build({
      MakePair(0, 0, 0, 2, 0, 0, 0.9),
      MakePair(0, 0, 0, 3, 0, 0, 0.8),
      MakePair(1, 0, 0, 2, 0, 0, 0.7),
      MakePair(1, 0, 0, 3, 0, 0, 0.6),
  });
  index.ApplyMerge(0, 1, 0,
                   {{{0, 0, 0}, {0, 0, 0}}, {{1, 0, 0}, {0, 1, 0}}});
  EXPECT_TRUE(index.CheckInvariants());
  index.ApplyMerge(2, 3, 2,
                   {{{2, 0, 0}, {2, 0, 0}}, {{3, 0, 0}, {2, 1, 0}}});
  EXPECT_TRUE(index.CheckInvariants());
  auto pairs = index.PairsFor(0, 2);
  EXPECT_EQ(pairs.size(), 4u);
  EXPECT_EQ(index.size(), 4u);
  // Descending similarity within the combined group.
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_GE(pairs[i - 1].sim, pairs[i].sim);
  }
}

TEST(ValuePairIndexTest, BuildReplacesPreviousContents) {
  ValuePairIndex index;
  index.Build({MakePair(0, 0, 0, 1, 0, 0, 0.5)});
  index.Build({MakePair(2, 0, 0, 3, 0, 0, 0.6)});
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.PairsFor(0, 1).empty());
  EXPECT_EQ(index.PairsFor(2, 3).size(), 1u);
}

TEST(ValuePairIndexTest, RandomizedMergeMaintainsInvariants) {
  Rng rng(77);
  const uint32_t kRecords = 20;
  std::vector<ValuePair> pairs;
  for (int i = 0; i < 150; ++i) {
    uint32_t a = static_cast<uint32_t>(rng.Uniform(kRecords));
    uint32_t b = static_cast<uint32_t>(rng.Uniform(kRecords));
    if (a == b) continue;
    pairs.push_back(MakePair(a, static_cast<uint32_t>(rng.Uniform(4)),
                             static_cast<uint32_t>(rng.Uniform(2)), b,
                             static_cast<uint32_t>(rng.Uniform(4)),
                             static_cast<uint32_t>(rng.Uniform(2)),
                             rng.UniformDouble()));
  }
  ValuePairIndex index;
  index.Build(pairs);
  ASSERT_TRUE(index.CheckInvariants());

  // Repeatedly merge random live record pairs with identity-style
  // remaps (values keep fid/vid, rid rewrites to the survivor with a
  // field offset to avoid label collisions).
  std::vector<uint32_t> live;
  for (uint32_t r = 0; r < kRecords; ++r) live.push_back(r);
  for (int step = 0; step < 10 && live.size() >= 2; ++step) {
    size_t ai = rng.Uniform(live.size());
    size_t bi = rng.Uniform(live.size());
    if (ai == bi) continue;
    uint32_t a = live[std::min(ai, bi)], b = live[std::max(ai, bi)];
    // Build the remap from the labels actually present: a's labels map
    // to themselves, b's get globally fresh field ids (guaranteed
    // collision-free across repeated merges).
    static uint32_t next_fid = 1000;
    std::set<ValueLabel> touched;
    std::vector<std::pair<ValueLabel, ValueLabel>> remap;
    for (const auto& p : index.Dump()) {
      for (const ValueLabel& label : {p.a, p.b}) {
        if (label.rid != a && label.rid != b) continue;
        if (!touched.insert(label).second) continue;
        if (label.rid == a) {
          remap.push_back({label, label});
        } else {
          remap.push_back({label, ValueLabel{a, next_fid++, 0}});
        }
      }
    }
    index.ApplyMerge(a, b, a, remap);
    EXPECT_TRUE(index.CheckInvariants()) << "step " << step;
    live.erase(std::remove(live.begin(), live.end(), b), live.end());
    // No pair may reference the dead record.
    for (const auto& p : index.Dump()) {
      EXPECT_NE(p.a.rid, b);
      EXPECT_NE(p.b.rid, b);
    }
  }
}

// ------------------------------------------------ Reference-index oracle

// The index as the paper states it, with no secondary structure: one
// flat vector in (rid1, rid2, sim desc, pid) order, re-sorted after
// every change. A merge relabels every pair through the remap.
class ReferenceIndex {
 public:
  void SetCeilings(size_t max_pairs, size_t max_per_record) {
    max_pairs_ = max_pairs;
    max_per_record_ = max_per_record;
  }

  void Build(const std::vector<ValuePair>& pairs) {
    pairs_.clear();
    next_pid_ = 0;
    shed_pairs_ = shed_posting_ = 0;
    AddPairs(pairs);
  }

  void AddPairs(const std::vector<ValuePair>& pairs) {
    for (const ValuePair& p : pairs) {
      ValueLabel a = p.a, b = p.b;
      if (a.rid > b.rid) std::swap(a, b);
      if (max_pairs_ > 0 && pairs_.size() >= max_pairs_) {
        ++shed_pairs_;
        continue;
      }
      if (max_per_record_ > 0 && (PostingLengths()[a.rid] >= max_per_record_ ||
                                  PostingLengths()[b.rid] >= max_per_record_)) {
        ++shed_posting_;
        continue;
      }
      pairs_.push_back({next_pid_++, a, b, p.sim});
    }
    Sort();
  }

  void ApplyMerge(uint32_t i, uint32_t j,
                  const std::vector<std::pair<ValueLabel, ValueLabel>>& remap) {
    std::map<ValueLabel, ValueLabel> relabel(remap.begin(), remap.end());
    std::vector<IndexedPair> kept;
    for (IndexedPair p : pairs_) {
      for (ValueLabel* l : {&p.a, &p.b}) {
        if (l->rid == i || l->rid == j) *l = relabel.at(*l);
      }
      if (p.a.rid == p.b.rid) continue;
      if (p.a.rid > p.b.rid) std::swap(p.a, p.b);
      kept.push_back(p);
    }
    pairs_ = std::move(kept);
    Sort();
  }

  void RestoreState(const std::vector<IndexedPair>& pairs, uint64_t next_pid,
                    size_t shed_pairs, size_t shed_posting) {
    pairs_ = pairs;
    Sort();
    next_pid_ = next_pid;
    shed_pairs_ = shed_pairs;
    shed_posting_ = shed_posting;
  }

  std::vector<IndexedPair> PairsFor(uint32_t i, uint32_t j) const {
    if (i > j) std::swap(i, j);
    std::vector<IndexedPair> out;
    for (const IndexedPair& p : pairs_) {
      if (p.a.rid == i && p.b.rid == j) out.push_back(p);
    }
    return out;
  }

  std::vector<std::pair<uint32_t, uint32_t>> GroupKeys(
      const std::set<uint32_t>* touching = nullptr) const {
    std::vector<std::pair<uint32_t, uint32_t>> keys;
    for (const IndexedPair& p : pairs_) {
      if (touching != nullptr && !touching->count(p.a.rid) &&
          !touching->count(p.b.rid)) {
        continue;
      }
      if (keys.empty() || keys.back() != std::make_pair(p.a.rid, p.b.rid)) {
        keys.emplace_back(p.a.rid, p.b.rid);
      }
    }
    return keys;
  }

  std::map<uint32_t, size_t> PostingLengths() const {
    std::map<uint32_t, size_t> len;
    for (const IndexedPair& p : pairs_) {
      ++len[p.a.rid];
      ++len[p.b.rid];
    }
    return len;
  }

  const std::vector<IndexedPair>& Dump() const { return pairs_; }
  size_t size() const { return pairs_.size(); }
  uint64_t next_pid() const { return next_pid_; }
  size_t shed_pairs() const { return shed_pairs_; }
  size_t shed_posting_entries() const { return shed_posting_; }

 private:
  void Sort() {
    std::sort(pairs_.begin(), pairs_.end(),
              [](const IndexedPair& x, const IndexedPair& y) {
                if (x.a.rid != y.a.rid) return x.a.rid < y.a.rid;
                if (x.b.rid != y.b.rid) return x.b.rid < y.b.rid;
                if (x.sim != y.sim) return x.sim > y.sim;
                return x.pid < y.pid;
              });
  }

  std::vector<IndexedPair> pairs_;
  uint64_t next_pid_ = 0;
  size_t max_pairs_ = 0, max_per_record_ = 0;
  size_t shed_pairs_ = 0, shed_posting_ = 0;
};

bool SamePairs(const std::vector<IndexedPair>& x,
               const std::vector<IndexedPair>& y) {
  if (x.size() != y.size()) return false;
  for (size_t k = 0; k < x.size(); ++k) {
    if (x[k].pid != y[k].pid || !(x[k].a == y[k].a) || !(x[k].b == y[k].b) ||
        x[k].sim != y[k].sim) {
      return false;
    }
  }
  return true;
}

// Drives ValuePairIndex and ReferenceIndex through the same random
// builds, incremental adds, real SuperRecord merges (either survivor,
// either argument order, so survivor values get relabeled and matched
// fields dedup two values onto one label), snapshot restores and moves,
// and compares every observable after every step.
class IndexOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexOracleTest, MatchesReferenceThroughRandomSequences) {
  Rng rng(GetParam());
  const uint32_t kRecords = 16 + static_cast<uint32_t>(rng.Uniform(10));
  const char* kAlphabet[] = {"a", "b", "c"};  // Small: merges dedup often.
  std::map<uint32_t, SuperRecord> live;
  for (uint32_t r = 0; r < kRecords; ++r) {
    std::vector<Value> values;
    for (int f = 0; f < 3; ++f) values.emplace_back(kAlphabet[rng.Uniform(3)]);
    live.emplace(r, SuperRecord::FromRecord(Record(r, 0, std::move(values))));
  }
  auto random_pairs = [&](size_t n) {
    std::vector<ValuePair> pairs;
    std::vector<uint32_t> rids;
    for (const auto& [rid, sr] : live) rids.push_back(rid);
    auto random_value = [&](uint32_t rid) {
      const SuperRecord& sr = live.at(rid);
      const auto f = static_cast<uint32_t>(rng.Uniform(sr.num_fields()));
      const auto v = static_cast<uint32_t>(rng.Uniform(sr.field(f).size()));
      return ValueLabel{rid, f, v};
    };
    while (pairs.size() < n && rids.size() >= 2) {
      const uint32_t r1 = rids[rng.Uniform(rids.size())];
      const uint32_t r2 = rids[rng.Uniform(rids.size())];
      if (r1 == r2) continue;
      // Few distinct similarities, so pid breaks many ties.
      const double sim = 0.5 + 0.1 * static_cast<double>(rng.Uniform(6));
      pairs.push_back({random_value(r1), random_value(r2), sim});
    }
    return pairs;
  };

  ValuePairIndex index;
  ReferenceIndex ref;
  const size_t initial = 150 + rng.Uniform(100);
  switch (GetParam() % 3) {
    case 1:  // Pair ceiling: the tail of the initial build is shed.
      index.SetCeilings(initial * 3 / 4, 0);
      ref.SetCeilings(initial * 3 / 4, 0);
      break;
    case 2:  // Posting-list ceiling.
      index.SetCeilings(0, 14);
      ref.SetCeilings(0, 14);
      break;
    default:
      break;
  }
  const std::vector<ValuePair> first = random_pairs(initial);
  index.Build(first);
  ref.Build(first);

  size_t smaller_survives = 0, larger_survives = 0, partner_between = 0,
         dedups = 0;
  auto compare = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_TRUE(index.CheckInvariants());
    ASSERT_TRUE(SamePairs(index.Dump(), ref.Dump()));
    EXPECT_EQ(index.size(), ref.size());
    EXPECT_EQ(index.next_pid(), ref.next_pid());
    EXPECT_EQ(index.shed_pairs(), ref.shed_pairs());
    EXPECT_EQ(index.shed_posting_entries(), ref.shed_posting_entries());
    EXPECT_EQ(index.GroupKeys(), ref.GroupKeys());
    std::set<uint32_t> some;
    for (const auto& [rid, sr] : live) {
      if (rng.Bernoulli(0.3)) some.insert(rid);
    }
    some.insert(kRecords + 5);  // A rid the index has never seen.
    EXPECT_EQ(index.GroupKeysTouching(
                  std::vector<uint32_t>(some.begin(), some.end())),
              ref.GroupKeys(&some));
    std::map<uint32_t, size_t> lengths;
    index.ForEachPostingLength(
        [&](uint32_t rid, size_t len) { EXPECT_TRUE(lengths.emplace(rid, len).second); });
    EXPECT_EQ(lengths, ref.PostingLengths());
    for (auto x = live.begin(); x != live.end(); ++x) {
      for (auto y = std::next(x); y != live.end(); ++y) {
        ASSERT_TRUE(SamePairs(index.PairsFor(y->first, x->first),
                              ref.PairsFor(x->first, y->first)))
            << x->first << "," << y->first;
      }
    }
  };
  compare(0);

  for (int step = 1; step <= 60; ++step) {
    const uint64_t action = rng.Uniform(20);
    if (action < 12 && live.size() >= 2) {
      // A merge of two live records through SuperRecord::Merge.
      std::vector<uint32_t> rids;
      for (const auto& [rid, sr] : live) rids.push_back(rid);
      uint32_t i = rids[rng.Uniform(rids.size())];
      uint32_t j = rids[rng.Uniform(rids.size())];
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      const uint32_t s = rng.Bernoulli(0.5) ? i : j;
      const uint32_t absorbed = s == i ? j : i;
      (s == i ? smaller_survives : larger_survives)++;
      for (uint32_t k : ref.PostingLengths() | std::views::keys) {
        if (k > i && k < j && !ref.PairsFor(absorbed, k).empty()) {
          ++partner_between;
          break;
        }
      }
      // Either record may be Merge's first argument; the second one's
      // values are the ones that move fields.
      const bool survivor_first = rng.Bernoulli(0.5);
      const SuperRecord& a = live.at(survivor_first ? s : absorbed);
      const SuperRecord& b = live.at(survivor_first ? absorbed : s);
      std::vector<FieldMatch> matching;
      for (uint32_t f = 0; f < std::min(a.num_fields(), b.num_fields()); ++f) {
        if (rng.Bernoulli(0.6)) matching.push_back({f, f, 1.0});
      }
      std::vector<std::pair<ValueLabel, ValueLabel>> remap;
      SuperRecord merged = SuperRecord::Merge(a, b, matching, s, &remap);
      std::set<ValueLabel> targets;
      for (const auto& [from, to] : remap) {
        if (!targets.insert(to).second) ++dedups;
      }
      if (rng.Bernoulli(0.5)) {
        index.ApplyMerge(i, j, s, remap);
      } else {
        index.ApplyMerge(j, i, s, remap);
      }
      ref.ApplyMerge(i, j, remap);
      live.erase(absorbed);
      live.at(s) = std::move(merged);
    } else if (action < 15) {
      const std::vector<ValuePair> more = random_pairs(1 + rng.Uniform(40));
      index.AddPairs(more);
      ref.AddPairs(more);
    } else if (action < 17) {
      ValuePairIndex restored;
      restored.SetCeilings(GetParam() % 3 == 1 ? initial * 3 / 4 : 0,
                           GetParam() % 3 == 2 ? 14 : 0);
      restored.RestoreState(index.Dump(), index.next_pid(), index.shed_pairs(),
                            index.shed_posting_entries(), index.probe_count());
      index = std::move(restored);
    } else if (action < 18) {
      ValuePairIndex moved(std::move(index));
      index = std::move(moved);
    } else {
      const std::vector<ValuePair> fresh = random_pairs(50 + rng.Uniform(100));
      index.Build(fresh);
      ref.Build(fresh);
    }
    compare(step);
    if (HasFatalFailure()) return;
  }
  // Every seed must reach the cases the index treats specially.
  EXPECT_GT(smaller_survives, 0u);
  EXPECT_GT(larger_survives, 0u);
  EXPECT_GT(partner_between, 0u);
  EXPECT_GT(dedups, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexOracleTest, ::testing::Range<uint64_t>(1, 25));

std::vector<ValuePair> RandomPairs(Rng* rng, size_t n, uint32_t num_records) {
  std::vector<ValuePair> pairs;
  while (pairs.size() < n) {
    const auto r1 = static_cast<uint32_t>(rng->Uniform(num_records));
    const auto r2 = static_cast<uint32_t>(rng->Uniform(num_records));
    if (r1 == r2) continue;
    pairs.push_back(MakePair(r1, static_cast<uint32_t>(rng->Uniform(3)),
                             static_cast<uint32_t>(rng->Uniform(2)), r2,
                             static_cast<uint32_t>(rng->Uniform(3)),
                             static_cast<uint32_t>(rng->Uniform(2)),
                             static_cast<double>(rng->Uniform(100)) / 100.0));
  }
  return pairs;
}

// The moves are defaulted, so moving must carry every field, including
// the shed and probe counters that IndexOracleTest does not compare.
TEST(ValuePairIndexTest, MoveCarriesFullState) {
  Rng rng(5);
  ValuePairIndex index;
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
  EXPECT_TRUE(SamePairs(moved.Dump(), dump));

  ValuePairIndex assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), size);
  EXPECT_EQ(assigned.shed_pairs(), shed);
  EXPECT_EQ(assigned.probe_count(), probes);
  EXPECT_TRUE(assigned.CheckInvariants());
  EXPECT_TRUE(SamePairs(assigned.Dump(), dump));
  // The moved-to index keeps working: probes still land.
  (void)assigned.PairsFor(0, 1);
  EXPECT_EQ(assigned.probe_count(), probes + 1);
}

TEST(ValuePairIndexTest, RestoreStateCarriesCounters) {
  Rng rng(88);
  ValuePairIndex index;
  index.Build(RandomPairs(&rng, 200, 25));
  const auto dump = index.Dump();
  const uint64_t next_pid = index.next_pid();

  ValuePairIndex restored;
  restored.RestoreState(dump, next_pid, 3, 4, 17);
  EXPECT_TRUE(restored.CheckInvariants());
  EXPECT_TRUE(SamePairs(restored.Dump(), dump));
  EXPECT_EQ(restored.shed_pairs(), 3u);
  EXPECT_EQ(restored.shed_posting_entries(), 4u);
  EXPECT_EQ(restored.probe_count(), 17u);
  EXPECT_EQ(restored.next_pid(), next_pid);
}

TEST(ValuePairIndexTest, HeapBytesPerPairAndFallAfterMerges) {
  MovieGeneratorConfig config;
  config.num_records = 2000;
  config.num_entities = 150;
  config.seed = 7;
  const Dataset ds = GenerateMovieDataset(config);
  HeraOptions opts;
  opts.xi = 0.5;
  auto pairs = ComputeSimilarValuePairs(ds, opts);
  ASSERT_TRUE(pairs.ok());
  ValuePairIndex index;
  index.Build(*pairs);
  ASSERT_GT(index.size(), 100000u);
  const size_t built = index.HeapBytes();
  EXPECT_LE(static_cast<double>(built) / static_cast<double>(index.size()), 90.0);

  // Merge each entity's records into its first one, as the resolver
  // would, with no matched fields.
  std::map<uint32_t, SuperRecord> live;
  for (const Record& r : ds.records()) live.emplace(r.id(), SuperRecord::FromRecord(r));
  std::map<uint32_t, uint32_t> root_of_entity;
  size_t merges = 0;
  for (const Record& r : ds.records()) {
    auto [it, first] = root_of_entity.emplace(ds.entity_of()[r.id()], r.id());
    if (first || merges == 500) continue;
    const uint32_t s = it->second;
    std::vector<std::pair<ValueLabel, ValueLabel>> remap;
    SuperRecord merged =
        SuperRecord::Merge(live.at(s), live.at(r.id()), {}, s, &remap);
    index.ApplyMerge(s, r.id(), s, remap);
    live.erase(r.id());
    live.at(s) = std::move(merged);
    ++merges;
  }
  ASSERT_EQ(merges, 500u);
  EXPECT_TRUE(index.CheckInvariants());
  EXPECT_LT(index.HeapBytes(), built);
}

// -------------------------------------------------------------- Bounds

TEST(BoundsTest, EmptyPairsGiveZeroBounds) {
  BoundResult r = ComputeBounds({}, 3, 3);
  EXPECT_DOUBLE_EQ(r.upper, 0.0);
  EXPECT_DOUBLE_EQ(r.lower, 0.0);
  EXPECT_FALSE(r.exact);
}

TEST(BoundsTest, OneToOnePairsAreExact) {
  // No multiple field: Up == Low == Sim (paper's direct-merge case).
  std::vector<IndexedPair> pairs = {
      {0, {0, 0, 0}, {1, 0, 0}, 1.0},
      {1, {0, 1, 0}, {1, 1, 0}, 0.8},
  };
  BoundResult r = ComputeBounds(pairs, 4, 3);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.upper, (1.0 + 0.8) / 3.0);
  EXPECT_DOUBLE_EQ(r.lower, r.upper);
}

TEST(BoundsTest, MultipleFieldMakesBoundsDiverge) {
  // Field 0 of the left record is covered by two pairs (multiple
  // field): upper counts the max, greedy lower resolves the conflict.
  std::vector<IndexedPair> pairs = {
      {0, {0, 0, 0}, {1, 0, 0}, 0.9},
      {1, {0, 0, 0}, {1, 1, 0}, 0.6},
      {2, {0, 1, 0}, {1, 1, 0}, 0.5},
  };
  BoundResult r = ComputeBounds(pairs, 2, 2);
  EXPECT_FALSE(r.exact);
  // Upper: left sums max per left field: 0.9 + 0.5 = 1.4; right sums
  // 0.9 + 0.6 = 1.5; min is 1.4.
  EXPECT_DOUBLE_EQ(r.upper, 1.4 / 2.0);
  // Greedy: take 0.9 (f0-g0), then 0.5 (f1-g1). Low = 1.4/2 too but via
  // a realizable matching; here they coincide.
  EXPECT_DOUBLE_EQ(r.lower, 1.4 / 2.0);
}

TEST(BoundsTest, RefinedSetKeepsMaxPerFieldPair) {
  std::vector<IndexedPair> pairs = {
      {0, {0, 0, 0}, {1, 0, 0}, 0.9},
      {1, {0, 0, 1}, {1, 0, 1}, 0.7},  // Same field pair, lower sim.
      {2, {0, 1, 0}, {1, 1, 0}, 0.5},
  };
  BoundResult r = ComputeBounds(pairs, 2, 2);
  ASSERT_EQ(r.refined.size(), 2u);
  EXPECT_DOUBLE_EQ(r.refined[0].sim, 0.9);
  EXPECT_DOUBLE_EQ(r.refined[1].sim, 0.5);
  EXPECT_TRUE(r.exact);
}

TEST(BoundsTest, PaperExample4DirectComputation) {
  // (r4, r6): three one-to-one pairs 1.0, 1.0, 0.9 over 5-field
  // records: Up = Low = 2.9 / 5 = 0.58.
  std::vector<IndexedPair> pairs = {
      {0, {3, 2, 0}, {5, 2, 0}, 1.0},
      {1, {3, 3, 0}, {5, 3, 0}, 1.0},
      {2, {3, 4, 0}, {5, 4, 0}, 0.9},
  };
  BoundResult r = ComputeBounds(pairs, 5, 5);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.upper, 2.9 / 5.0);
  EXPECT_DOUBLE_EQ(r.lower, 2.9 / 5.0);
}

// Property: Low <= optimal matching / min <= Up on random instances
// (optimal found by brute force over permutations).
class BoundsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

double BruteForceBestMatching(const std::vector<IndexedPair>& refined,
                              size_t nl, size_t nr) {
  // Exhaustive search over subsets via recursion on left fields.
  std::vector<std::vector<double>> w(nl, std::vector<double>(nr, -1.0));
  for (const auto& p : refined) w[p.a.fid][p.b.fid] = p.sim;
  std::vector<bool> used(nr, false);
  std::function<double(size_t)> best = [&](size_t i) -> double {
    if (i == nl) return 0.0;
    double result = best(i + 1);  // Leave field i unmatched.
    for (size_t j = 0; j < nr; ++j) {
      if (!used[j] && w[i][j] >= 0.0) {
        used[j] = true;
        result = std::max(result, w[i][j] + best(i + 1));
        used[j] = false;
      }
    }
    return result;
  };
  return best(0);
}

TEST_P(BoundsPropertyTest, BoundsSandwichOptimum) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const size_t nl = 2 + rng.Uniform(4), nr = 2 + rng.Uniform(4);
    std::vector<IndexedPair> pairs;
    uint64_t pid = 0;
    for (uint32_t f = 0; f < nl; ++f) {
      for (uint32_t g = 0; g < nr; ++g) {
        if (rng.Bernoulli(0.4)) {
          pairs.push_back({pid++, {0, f, 0}, {1, g, 0},
                           0.3 + 0.7 * rng.UniformDouble()});
        }
      }
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const IndexedPair& a, const IndexedPair& b) {
                return a.sim > b.sim;
              });
    BoundResult r = ComputeBounds(pairs, nl, nr);
    double denom = static_cast<double>(std::min(nl, nr));
    double optimal = BruteForceBestMatching(r.refined, nl, nr) / denom;
    EXPECT_LE(r.lower, optimal + 1e-9);
    EXPECT_GE(r.upper, optimal - 1e-9);
    if (r.exact) EXPECT_NEAR(r.lower, optimal, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace hera
