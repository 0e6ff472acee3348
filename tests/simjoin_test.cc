// Tests for src/simjoin: the prefix-filter join must agree exactly
// with the nested-loop oracle for the Jaccard metric (the filter is
// exact there), across thresholds and random inputs, and its emission
// order is pinned, because the index assigns pids in that order.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "record/dataset.h"
#include "sim/metrics.h"
#include "simjoin/similarity_join.h"

namespace hera {
namespace {

using PairKey = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t, uint32_t>;

PairKey KeyOf(const ValuePair& p) {
  ValueLabel a = p.a, b = p.b;
  if (b.rid < a.rid) std::swap(a, b);
  return {a.rid, a.fid, a.vid, b.rid, b.fid, b.vid};
}

std::set<PairKey> KeySet(const std::vector<ValuePair>& pairs) {
  std::set<PairKey> out;
  for (const auto& p : pairs) out.insert(KeyOf(p));
  return out;
}

std::vector<LabeledValue> MakeValues(const std::vector<std::string>& strings) {
  std::vector<LabeledValue> out;
  for (uint32_t i = 0; i < strings.size(); ++i) {
    out.push_back({ValueLabel{i, 0, 0}, Value(strings[i])});
  }
  return out;
}

TEST(NestedLoopJoinTest, FindsSimilarPairs) {
  auto values = MakeValues({"electronic", "electronics", "sports"});
  auto metric = MakeSimilarity("jaccard_q2");
  NestedLoopJoin join;
  auto pairs = join.Join(values, *metric, 0.5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 0.9);
}

TEST(NestedLoopJoinTest, ExcludesSameRecordPairs) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value("abc")},
      {ValueLabel{0, 1, 0}, Value("abc")},  // Same rid: excluded.
      {ValueLabel{1, 0, 0}, Value("abc")},
  };
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = NestedLoopJoin().Join(values, *metric, 0.9);
  EXPECT_EQ(pairs.size(), 2u);  // (0,f0)-(1,...) and (0,f1)-(1,...).
  for (const auto& p : pairs) EXPECT_NE(p.a.rid, p.b.rid);
}

TEST(NestedLoopJoinTest, ThresholdZeroKeepsOnlyPositive) {
  // xi = 0 admits every cross-record pair with sim >= 0 (all of them).
  auto values = MakeValues({"abc", "xyz"});
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = NestedLoopJoin().Join(values, *metric, 0.0);
  EXPECT_EQ(pairs.size(), 1u);
  EXPECT_DOUBLE_EQ(pairs[0].sim, 0.0);
}

TEST(PrefixFilterJoinTest, MatchesOracleOnSmallExample) {
  auto values = MakeValues(
      {"electronic", "electronics", "sports", "Bush", "J.Bush", "bush@gmail"});
  auto metric = MakeSimilarity("jaccard_q2");
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, 0.5));
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, 0.5));
  EXPECT_EQ(oracle, fast);
}

TEST(PrefixFilterJoinTest, EmptyInput) {
  auto metric = MakeSimilarity("jaccard_q2");
  EXPECT_TRUE(PrefixFilterJoin().Join({}, *metric, 0.5).empty());
}

TEST(PrefixFilterJoinTest, SingleValueNoPairs) {
  auto values = MakeValues({"alone"});
  auto metric = MakeSimilarity("jaccard_q2");
  EXPECT_TRUE(PrefixFilterJoin().Join(values, *metric, 0.1).empty());
}

TEST(PrefixFilterJoinTest, IdenticalValuesAcrossManyRecords) {
  std::vector<std::string> strings(10, "same value");
  auto values = MakeValues(strings);
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = PrefixFilterJoin().Join(values, *metric, 1.0);
  EXPECT_EQ(pairs.size(), 45u);  // C(10, 2).
  for (const auto& p : pairs) EXPECT_DOUBLE_EQ(p.sim, 1.0);
}

TEST(PrefixFilterJoinTest, NumericSweepUnderHybridMetric) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value(100.0)},
      {ValueLabel{1, 0, 0}, Value(99.0)},   // sim ~0.99.
      {ValueLabel{2, 0, 0}, Value(50.0)},   // sim 0.5 vs 100.
      {ValueLabel{3, 0, 0}, Value(1.0)},    // Far from all.
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, 0.9));
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, 0.9));
  EXPECT_EQ(fast, oracle);
  EXPECT_EQ(fast.size(), 1u);
}

TEST(PrefixFilterJoinTest, NumericSweepWithNegativeValues) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value(-100.0)},
      {ValueLabel{1, 0, 0}, Value(-99.0)},
      {ValueLabel{2, 0, 0}, Value(100.0)},
      {ValueLabel{3, 0, 0}, Value(0.0)},
      {ValueLabel{4, 0, 0}, Value(0.0)},
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  for (double xi : {0.3, 0.5, 0.9, 1.0}) {
    auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, xi));
    auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, xi));
    EXPECT_EQ(fast, oracle) << "xi=" << xi;
  }
}

TEST(PrefixFilterJoinTest, MixedStringAndNumericValues) {
  std::vector<LabeledValue> values = {
      {ValueLabel{0, 0, 0}, Value("drama film")},
      {ValueLabel{1, 0, 0}, Value("drama films")},
      {ValueLabel{2, 0, 0}, Value(1999.0)},
      {ValueLabel{3, 0, 0}, Value(1998.0)},
      {ValueLabel{4, 0, 0}, Value()},  // Null: never joins.
  };
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, 0.6));
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, 0.6));
  EXPECT_EQ(fast, oracle);
  EXPECT_EQ(fast.size(), 2u);  // String pair + numeric pair.
}

// Property sweep: random string corpora, several thresholds — fast join
// must equal the oracle exactly (prefix filter is exact for Jaccard).
class JoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(JoinEquivalenceTest, PrefixFilterEqualsOracle) {
  auto [xi, seed] = GetParam();
  Rng rng(seed);
  const char* kWords[] = {"norman", "street", "bush",  "gmail", "electronic",
                          "manager", "sports", "west",  "john",  "product"};
  std::vector<LabeledValue> values;
  const uint32_t kRecords = 30;
  for (uint32_t r = 0; r < kRecords; ++r) {
    uint32_t fields = 1 + static_cast<uint32_t>(rng.Uniform(4));
    for (uint32_t f = 0; f < fields; ++f) {
      std::string s = kWords[rng.Uniform(10)];
      if (rng.Bernoulli(0.5)) s += " " + std::string(kWords[rng.Uniform(10)]);
      if (rng.Bernoulli(0.3)) s[rng.Uniform(s.size())] = 'z';  // Typo.
      values.push_back({ValueLabel{r, f, 0}, Value(s)});
    }
  }
  auto metric = MakeSimilarity("jaccard_q2");
  auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, xi));
  auto fast = KeySet(PrefixFilterJoin().Join(values, *metric, xi));
  EXPECT_EQ(oracle, fast) << "xi=" << xi << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(0.3, 0.5, 0.7, 0.9, 1.0),
                       ::testing::Values(1u, 2u, 3u, 4u)));

// A guard trip between candidate generation and verification must not
// lose pairs from the accounting: the batch whose weighted Tick(n)
// fired was counted as candidates but never verified, and is reported
// shed — candidates == verified + shed_candidates holds exactly at the
// trip boundary, for both entry points.
TEST(PrefixFilterJoinTest, ShedCandidatesExactAtGuardTrip) {
  // Identical values across many records: candidate lists grow with
  // the probe index, so the 1024-op ticker boundary is crossed inside a
  // large Tick(candidates.size()) batch. JoinAB also ticks each probe's
  // gathered postings (the whole base) before its candidate batch (the
  // whole base again), so a base of 600 keeps the first probe's gather
  // under the boundary and puts the crossing in its candidate batch.
  std::vector<std::string> strings(700, "same value");
  auto all = MakeValues(strings);
  std::vector<LabeledValue> values(all.begin(), all.begin() + 200);
  std::vector<LabeledValue> probe(all.begin(), all.begin() + 100);
  std::vector<LabeledValue> base(all.begin() + 100, all.end());
  auto metric = MakeSimilarity("jaccard_q2");

  CancellationToken token = CancellationToken::Make();
  token.RequestCancel();  // Trips at the first ticker boundary.
  RunGuard guard;
  guard.WithCancellation(token);
  for (bool self : {true, false}) {
    auto run = [&](const RunGuard& g, JoinReport* report) {
      std::vector<ValuePair> out;
      PrefixFilterJoin join;
      return self ? join.Join(values, *metric, 1.0, g, &out, report)
                  : join.JoinAB(probe, base, *metric, 1.0, g, &out, report);
    };
    JoinReport report;
    ASSERT_TRUE(run(guard, &report).ok());
    EXPECT_TRUE(report.truncated) << "self=" << self;
    EXPECT_GT(report.candidates, 0u) << "self=" << self;
    EXPECT_GT(report.shed_candidates, 0u) << "self=" << self;
    EXPECT_EQ(report.candidates, report.verified + report.shed_candidates)
        << "self=" << self;

    // Unguarded control: nothing is shed and every candidate is verified.
    JoinReport full_report;
    ASSERT_TRUE(run(RunGuard(), &full_report).ok());
    EXPECT_FALSE(full_report.truncated) << "self=" << self;
    EXPECT_EQ(full_report.shed_candidates, 0u) << "self=" << self;
    EXPECT_EQ(full_report.candidates, full_report.verified) << "self=" << self;
  }
}

// JoinAB probes full base lists, which can be long while few entries
// survive the filters. The guard must still be consulted during that
// scan: here one probe gathers thousands of length-pruned postings and
// a single candidate, so only the gathered work crosses the ticker's
// 1024-op boundary. A cancelled run stops before verifying anything.
TEST(PrefixFilterJoinTest, JoinABChecksGuardOnLongFilteredLists) {
  std::vector<std::string> strings = {"xyz", "xyz"};
  for (int i = 0; i < 2000; ++i) {
    std::string s = "xyz ";
    for (int j = 0; j < 60; ++j) s.push_back('a' + (i * 7 + j) % 26);
    strings.push_back(s);
  }
  auto values = MakeValues(strings);
  std::vector<LabeledValue> probe(values.begin(), values.begin() + 1);
  std::vector<LabeledValue> base(values.begin() + 1, values.end());
  auto metric = MakeSimilarity("jaccard_q2");

  JoinReport full_report;
  std::vector<ValuePair> full;
  ASSERT_TRUE(PrefixFilterJoin()
                  .JoinAB(probe, base, *metric, 0.1, RunGuard(), &full,
                          &full_report)
                  .ok());
  ASSERT_EQ(full_report.candidates, 1u);  // Only the equal string.
  ASSERT_EQ(full.size(), 1u);

  CancellationToken token = CancellationToken::Make();
  token.RequestCancel();
  RunGuard guard;
  guard.WithCancellation(token);
  JoinReport report;
  std::vector<ValuePair> out;
  ASSERT_TRUE(PrefixFilterJoin()
                  .JoinAB(probe, base, *metric, 0.1, guard, &out, &report)
                  .ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.candidates, 0u);
  EXPECT_EQ(report.verified, 0u);
  EXPECT_TRUE(out.empty());
}

// Similarity values reported by the fast join must equal the metric's.
TEST(PrefixFilterJoinTest, ReportedSimilaritiesMatchMetric) {
  auto values = MakeValues({"2 Norman Street", "2 West Norman", "West Norman"});
  auto metric = MakeSimilarity("jaccard_q2");
  for (const auto& p : PrefixFilterJoin().Join(values, *metric, 0.2)) {
    double expect = metric->Compute(values[p.a.rid].value, values[p.b.rid].value);
    EXPECT_NEAR(p.sim, expect, 1e-12);
  }
}

// ------------------------------------------------- emission-order pin
//
// The value-pair index assigns pids in the join's emission order, and
// pids break ties among equal-similarity pairs. So the order of the
// emitted list is part of the join's contract, not only its content.
// These cases pin both entry points' pair lists (labels and the bit
// pattern of each similarity, in emission order) and their report
// counters as FNV-1a fingerprints. Every case must give the same
// fingerprint on both index backends and at 1 and 4 threads.

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t Fingerprint(const std::vector<ValuePair>& pairs,
                     const JoinReport& report) {
  Fnv1a f;
  for (const ValuePair& p : pairs) {
    for (uint32_t x : {p.a.rid, p.a.fid, p.a.vid, p.b.rid, p.b.fid, p.b.vid}) {
      f.Add(x);
    }
    f.Add(std::bit_cast<uint64_t>(p.sim));
  }
  for (size_t c : {size_t{report.truncated}, report.shed_posting_entries,
                   report.candidates, report.verified, report.shed_candidates,
                   report.emitted, report.pruned_prefix, report.pruned_length,
                   report.pruned_positional, report.pruned_suffix}) {
    f.Add(c);
  }
  return f.value();
}

std::vector<LabeledValue> ValuesOf(const Dataset& ds) {
  std::vector<LabeledValue> values;
  for (const Record& r : ds.records()) {
    SuperRecord sr = SuperRecord::FromRecord(r);
    for (uint32_t f = 0; f < sr.num_fields(); ++f) {
      for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
        values.push_back(
            {ValueLabel{sr.rid(), f, v}, sr.field(f).value(v).value});
      }
    }
  }
  return values;
}

std::vector<LabeledValue> Movies(size_t records, uint64_t seed) {
  MovieGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 5;
  config.seed = seed;
  return ValuesOf(GenerateMovieDataset(config));
}

std::vector<LabeledValue> Publications(size_t records, uint64_t seed) {
  PublicationGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 4;
  config.seed = seed;
  return ValuesOf(GeneratePublicationDataset(config));
}

// Strings, nulls and many tied numbers on both sides of zero, so the
// numeric sweep's order among equal values is pinned too.
std::vector<LabeledValue> HybridValues(uint64_t seed) {
  Rng rng(seed);
  const char* kPhrases[] = {"norman street", "norman streez", "west bush",
                            "bush gmail",    "electronic manager",
                            "electronics manager", "sports west",
                            "john product",  "john products", "gmail west"};
  std::vector<LabeledValue> values;
  for (uint32_t r = 0; r < 160; ++r) {
    values.push_back({ValueLabel{r, 0, 0}, Value(kPhrases[rng.Uniform(10)])});
    const double half = rng.Bernoulli(0.3) ? 0.5 : 0.0;
    const double small = static_cast<double>(rng.UniformInt(-12, 12)) + half;
    const double wide = static_cast<double>(rng.UniformInt(-40, 40)) * 25.0;
    const bool null_wide = rng.Bernoulli(0.1);
    const bool has_year = rng.Bernoulli(0.5);
    const double year = static_cast<double>(rng.UniformInt(1990, 2005));
    values.emplace_back(LabeledValue{ValueLabel{r, 1, 0}, Value(small)});
    values.emplace_back(
        LabeledValue{ValueLabel{r, 2, 0}, null_wide ? Value() : Value(wide)});
    if (has_year) {
      values.emplace_back(LabeledValue{ValueLabel{r, 2, 1}, Value(year)});
    }
  }
  return values;
}

struct PinCase {
  const char* name;
  std::vector<LabeledValue> values;
  const char* metric;
  double xi;
  int q;
  bool pair_cache;
  bool token_cache;
  size_t max_posting;
  uint64_t join_fp;
  uint64_t join_ab_fp;
};

// A change that moves any of these constants changes the pid order of
// the index built from the join, and must say why.
std::vector<PinCase> PinCases() {
  std::vector<PinCase> cases;
  cases.push_back({"movies jaccard_q2", Movies(240, 7), "jaccard_q2", 0.5, 2,
                   false, true, 0, 0xc01cd66ceb33ac47ull,
                   0x91cb24a799642768ull});
  cases.push_back({"movies edit + pair cache", Movies(120, 5), "edit", 0.6, 2,
                   true, false, 0, 0x9bb82309fd1d3f87ull,
                   0x8b6d37d9a5016312ull});
  cases.push_back({"publications jaccard_q3", Publications(200, 11),
                   "jaccard_q3", 0.5, 3, false, false, 0,
                   0xc7775b3df895cae7ull, 0xc6c8399cddd406dcull});
  cases.push_back({"hybrid relative window", HybridValues(23),
                   "hybrid(jaccard_q2)", 0.8, 2, false, false, 0,
                   0x73080a8bc4343378ull, 0x2491bdf03c783c01ull});
  cases.push_back({"hybrid numeric_tol window", HybridValues(29),
                   "hybrid(jaccard_q2,numeric_tol30)", 0.6, 2, false, true, 0,
                   0xba81c402031a93abull, 0x7e6addc6d8f54779ull});
  cases.push_back({"movies posting ceiling", Movies(240, 13), "jaccard_q2",
                   0.4, 2, false, false, 6, 0x3decb62298897995ull,
                   0x0dc39f542f7816d0ull});
  return cases;
}

TEST(JoinOrderPinTest, EmissionOrderAndCountersArePinned) {
  for (const PinCase& c : PinCases()) {
    auto metric = MakeSimilarity(c.metric);
    ASSERT_NE(metric, nullptr) << c.name;
    // A 70/30 probe/base split by record, as incremental rounds split
    // fresh records from indexed ones.
    std::vector<LabeledValue> probe, base;
    for (const LabeledValue& lv : c.values) {
      (lv.label.rid % 10 < 7 ? probe : base).push_back(lv);
    }
    RunGuard guard;
    if (c.max_posting > 0) guard.WithMaxPostingList(c.max_posting);
    for (IndexBackend backend : {IndexBackend::kOrdered, IndexBackend::kFlat}) {
      for (size_t threads : {1u, 4u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        PrefixFilterJoin join(c.q);
        join.SetExecutor(pool.get());
        join.SetIndexBackend(backend);
        if (c.pair_cache) {
          join.SetPairSimCache(std::make_shared<PairSimCache>(metric->Name()));
        }
        if (c.token_cache) {
          join.SetTokenCache(std::make_shared<TokenCache>(c.q));
        }
        const std::string where = std::string(c.name) + " backend=" +
                                  IndexBackendToString(backend) +
                                  " threads=" + std::to_string(threads);

        std::vector<ValuePair> out;
        JoinReport report;
        ASSERT_TRUE(
            join.Join(c.values, *metric, c.xi, guard, &out, &report).ok());
        EXPECT_FALSE(out.empty()) << where;
        EXPECT_EQ(c.max_posting > 0, report.shed_posting_entries > 0) << where;
        const uint64_t join_fp = Fingerprint(out, report);
        EXPECT_EQ(join_fp, c.join_fp)
            << where << " Join fingerprint 0x" << std::hex << join_fp;

        JoinReport ab_report;
        ASSERT_TRUE(join.JoinAB(probe, base, *metric, c.xi, guard, &out,
                                &ab_report)
                        .ok());
        EXPECT_FALSE(out.empty()) << where;
        const uint64_t ab_fp = Fingerprint(out, ab_report);
        EXPECT_EQ(ab_fp, c.join_ab_fp)
            << where << " JoinAB fingerprint 0x" << std::hex << ab_fp;
      }
    }
  }
}

}  // namespace
}  // namespace hera
