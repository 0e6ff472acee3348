// Tests for src/simjoin: the prefix-filter join must agree exactly
// with the nested-loop oracle for the Jaccard metric (the filter is
// exact there), across thresholds and random inputs, and its emission
// order is pinned, because the index assigns pids in that order.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
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
#include "testing_util.h"

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

/// Records holding a phrase, a year stored either as a number or as the
/// string that renders the same ("1995" and 1995.0), and a price that
/// is sometimes null.
std::vector<LabeledValue> MixedTypeValues(uint64_t seed) {
  Rng rng(seed);
  const char* kPhrases[] = {"norman street", "norman streez", "west bush",
                            "bush west",     "john product",  "john products",
                            "gmail west",    "electronic manager"};
  std::vector<LabeledValue> values;
  for (uint32_t r = 0; r < 90; ++r) {
    values.push_back({ValueLabel{r, 0, 0}, Value(kPhrases[rng.Uniform(8)])});
    const int year = static_cast<int>(rng.UniformInt(1985, 2010));
    values.push_back({ValueLabel{r, 1, 0},
                      rng.Bernoulli(0.5) ? Value(static_cast<double>(year))
                                         : Value(std::to_string(year))});
    values.push_back(
        {ValueLabel{r, 2, 0},
         rng.Bernoulli(0.1) ? Value()
                            : Value(static_cast<double>(rng.UniformInt(5, 60)))});
  }
  return values;
}

std::map<PairKey, double> SimsOf(const std::vector<ValuePair>& pairs) {
  std::map<PairKey, double> out;
  for (const ValuePair& p : pairs) out.emplace(KeyOf(p), p.sim);
  return out;
}

// The join reads what a metric declares in Traits(), never its Name():
// number rules alone and under hybrids, and a black-box metric that
// reports a built-in name. Both entry points must equal the nested-loop
// join, pairs and sims, at 1 and 4 threads, with one known gap: the
// numeric sweep never pairs a number with a string, which a hybrid's
// string metric scores over the number's rendering. The pairs the join
// misses must be exactly those mixed-type pairs. The edit family adds a
// second known gap, blocking at the slackened gram prefix, which loses
// string pairs (ROADMAP item 5); its number pairs must still be exact.
TEST(PrefixFilterJoinTest, MetricTraitsNotNamesPickThePath) {
  const std::vector<LabeledValue> values = MixedTypeValues(43);
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, bool> is_number;
  for (const LabeledValue& lv : values) {
    is_number[{lv.label.rid, lv.label.fid, lv.label.vid}] =
        lv.value.is_number();
  }
  // How many of the pair's two values are numbers.
  auto numbers_in = [&](const PairKey& k) {
    const auto [ar, af, av, br, bf, bv] = k;
    return int{is_number.at({ar, af, av})} + int{is_number.at({br, bf, bv})};
  };
  std::vector<LabeledValue> probe, base;
  for (const LabeledValue& lv : values) {
    (lv.label.rid % 10 < 7 ? probe : base).push_back(lv);
  }
  struct Case {
    std::string name;
    ValueSimilarityPtr metric;
    bool loses_strings = false;
  };
  std::vector<Case> cases;
  for (const char* name :
       {"numeric", "numeric_tol30", "hybrid(numeric_tol30)",
        "hybrid(jaccard_q2,numeric_tol30)", "hybrid(jaccard_q2)"}) {
    cases.push_back({name, MakeSimilarity(name)});
  }
  cases.push_back({"hybrid(edit,numeric_tol30)",
                   MakeSimilarity("hybrid(edit,numeric_tol30)"), true});
  cases.push_back({"squared jaccard named jaccard_q2",
                   std::make_shared<testing_util::SquaredJaccardNamedJaccard>()});
  for (const Case& c : cases) {
    ASSERT_NE(c.metric, nullptr) << c.name;
    const double xi = 0.6;
    const auto want = SimsOf(NestedLoopJoin().Join(values, *c.metric, xi));
    const auto want_ab =
        SimsOf(NestedLoopJoin().JoinAB(probe, base, *c.metric, xi));
    ASSERT_FALSE(want.empty()) << c.name;
    for (size_t threads : {1u, 4u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      PrefixFilterJoin join;
      join.SetExecutor(pool.get());
      for (bool ab : {false, true}) {
        const std::string where = c.name + (ab ? " JoinAB" : " Join") +
                                  " threads=" + std::to_string(threads);
        const auto& oracle = ab ? want_ab : want;
        const auto got = SimsOf(ab ? join.JoinAB(probe, base, *c.metric, xi)
                                   : join.Join(values, *c.metric, xi));
        for (const auto& [key, sim] : got) {
          ASSERT_TRUE(oracle.count(key)) << where << " emits a pair below xi";
          EXPECT_EQ(sim, oracle.at(key)) << where;
        }
        size_t mixed_missing = 0;
        for (const auto& [key, sim] : oracle) {
          if (got.count(key)) continue;
          const int numbers = numbers_in(key);
          EXPECT_NE(numbers, 2) << where << " misses a number pair";
          if (!c.loses_strings) {
            EXPECT_NE(numbers, 0) << where << " misses a string pair";
          }
          mixed_missing += numbers == 1;
        }
        // Only a metric with a number rule sends numbers to the sweep.
        size_t mixed_similar = 0;
        if (c.metric->Traits().numbers != SimilarityTraits::Numbers::kAsText) {
          for (const auto& [key, sim] : oracle) {
            mixed_similar += numbers_in(key) == 1;
          }
        }
        EXPECT_EQ(mixed_missing, mixed_similar) << where;
      }
    }
  }
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

// Generated movie and publication corpora: long titles and author lists
// whose pairs share their first prefix token deep in both sets, which
// is where the positional filter prunes. Both entry points must equal
// the oracle at 1 and 4 threads, and the filter must have pruned, so
// the oracle covers its bound.
class CorpusJoinEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, double>> {};

TEST_P(CorpusJoinEquivalenceTest, PrefixFilterEqualsOracle) {
  auto [corpus, metric_name, xi] = GetParam();
  const std::vector<LabeledValue> values =
      corpus == "movies" ? Movies(60, 17) : Publications(60, 19);
  // A 70/30 probe/base split by record, as in the emission-order pin.
  std::vector<LabeledValue> probe, base;
  for (const LabeledValue& lv : values) {
    (lv.label.rid % 10 < 7 ? probe : base).push_back(lv);
  }
  auto metric = MakeSimilarity(metric_name);
  const int q = metric_name == "jaccard_q3" ? 3 : 2;
  const auto oracle = KeySet(NestedLoopJoin().Join(values, *metric, xi));
  const auto oracle_ab =
      KeySet(NestedLoopJoin().JoinAB(probe, base, *metric, xi));
  for (size_t threads : {1u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    PrefixFilterJoin join(q);
    join.SetExecutor(pool.get());
    const std::string where = corpus + " " + metric_name +
                              " xi=" + std::to_string(xi) +
                              " threads=" + std::to_string(threads);

    std::vector<ValuePair> out;
    JoinReport report;
    ASSERT_TRUE(join.Join(values, *metric, xi, RunGuard(), &out, &report).ok());
    EXPECT_EQ(KeySet(out), oracle) << where << " Join";
    EXPECT_GT(report.pruned_positional, 0u) << where << " Join";
    EXPECT_EQ(report.pruned_suffix, 0u) << where << " Join";

    JoinReport ab_report;
    ASSERT_TRUE(
        join.JoinAB(probe, base, *metric, xi, RunGuard(), &out, &ab_report)
            .ok());
    EXPECT_EQ(KeySet(out), oracle_ab) << where << " JoinAB";
    EXPECT_GT(ab_report.pruned_positional, 0u) << where << " JoinAB";
    EXPECT_EQ(ab_report.pruned_suffix, 0u) << where << " JoinAB";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, CorpusJoinEquivalenceTest,
    ::testing::Combine(::testing::Values("movies", "publications"),
                       ::testing::Values("jaccard_q2", "jaccard_q3"),
                       ::testing::Values(0.5, 0.7, 0.9)));

// A guard trip between candidate generation and verification must not
// lose pairs from the accounting: the batch whose weighted Tick(n)
// fired was counted as candidates but never verified, and is reported
// shed — candidates == verified + shed_candidates holds exactly at the
// trip boundary, for both entry points.
TEST(PrefixFilterJoinTest, ShedCandidatesExactAtGuardTrip) {
  // Distinct short strings that all share the gram "qz": at xi = 0.1
  // each is a candidate of every other, so the self-join's candidate
  // batches grow with the probe index, and the 1024-op ticker boundary
  // is crossed inside a large Tick(candidates.size()) batch. The texts
  // must differ, since the join scores each distinct text once. JoinAB
  // also ticks each probe's gathered postings (the base's "qz" list and
  // a few short ones) before its candidate batch (the whole base), so a
  // base of 600 keeps the first probe's gather under the boundary and
  // puts the crossing in its candidate batch.
  std::vector<std::string> strings;
  for (int i = 0; i < 700; ++i) {
    strings.push_back(std::string("qz") + static_cast<char>('a' + i % 26) +
                      static_cast<char>('a' + i / 26 % 26) +
                      static_cast<char>('a' + i / 676));
  }
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
      return self ? join.Join(values, *metric, 0.1, g, &out, report)
                  : join.JoinAB(probe, base, *metric, 0.1, g, &out, report);
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

// The expansion of distinct pairs into occurrence pairs does work in
// proportion to its output: 200 records of one string are one distinct
// pair but 19,900 occurrence pairs. It ticks the guard by the pairs it
// expands, and a trip keeps a prefix of the emission order.
TEST(PrefixFilterJoinTest, ExpansionHonorsGuard) {
  auto all = MakeValues(std::vector<std::string>(300, "same value"));
  std::vector<LabeledValue> values(all.begin(), all.begin() + 200);
  std::vector<LabeledValue> probe(all.begin(), all.begin() + 100);
  std::vector<LabeledValue> base(all.begin() + 100, all.end());
  auto metric = MakeSimilarity("jaccard_q2");

  CancellationToken token = CancellationToken::Make();
  token.RequestCancel();
  RunGuard guard;
  guard.WithCancellation(token);
  for (bool self : {true, false}) {
    auto run = [&](const RunGuard& g, std::vector<ValuePair>* out,
                   JoinReport* report) {
      PrefixFilterJoin join;
      return self ? join.Join(values, *metric, 1.0, g, out, report)
                  : join.JoinAB(probe, base, *metric, 1.0, g, out, report);
    };
    std::vector<ValuePair> full, out;
    JoinReport full_report, report;
    ASSERT_TRUE(run(RunGuard(), &full, &full_report).ok());
    ASSERT_EQ(full.size(), self ? 19900u : 20000u);
    ASSERT_TRUE(run(guard, &out, &report).ok());
    EXPECT_TRUE(report.truncated) << "self=" << self;
    // The distinct join finished; only the expansion stopped.
    EXPECT_EQ(report.candidates, report.verified) << "self=" << self;
    EXPECT_EQ(report.distinct_emitted, full_report.distinct_emitted)
        << "self=" << self;
    EXPECT_GT(out.size(), 0u) << "self=" << self;
    ASSERT_LT(out.size(), full.size()) << "self=" << self;
    EXPECT_EQ(report.emitted, out.size()) << "self=" << self;
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(KeyOf(out[i]), KeyOf(full[i])) << "self=" << self << " i=" << i;
      ASSERT_EQ(out[i].sim, full[i].sim) << "self=" << self << " i=" << i;
    }
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
    // Distinct texts: the join indexes each distinct text once.
    std::string s = "xyz " + std::to_string(i) + " ";
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
// pattern of each similarity, in emission order) and, separately,
// their report counters, as FNV-1a fingerprints. The pairs pin is the
// contract; the counters pin moves whenever the join does different
// filter or verify work for the same output. Every case must give the
// same fingerprints at 1 and 4 threads.

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

uint64_t PairsFingerprint(const std::vector<ValuePair>& pairs) {
  Fnv1a f;
  for (const ValuePair& p : pairs) {
    for (uint32_t x : {p.a.rid, p.a.fid, p.a.vid, p.b.rid, p.b.fid, p.b.vid}) {
      f.Add(x);
    }
    f.Add(std::bit_cast<uint64_t>(p.sim));
  }
  return f.value();
}

uint64_t CountersFingerprint(const JoinReport& report) {
  Fnv1a f;
  for (size_t c : {size_t{report.truncated}, report.shed_posting_entries,
                   report.candidates, report.verified, report.shed_candidates,
                   report.emitted, report.pruned_prefix, report.pruned_length,
                   report.pruned_positional, report.pruned_suffix}) {
    f.Add(c);
  }
  return f.value();
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

// Few distinct texts over many records: the same text in many
// records, the same text twice in one record, equal-size texts that
// interleave in the size-sorted order, and numbers next to strings
// that render the same ("1997" and 1997.0). The 70/30 probe/base split
// below puts most texts on both sides of JoinAB.
std::vector<LabeledValue> DuplicateValues(uint64_t seed) {
  Rng rng(seed);
  const char* kTexts[] = {"norman street", "norman streez", "west bush",
                          "bush west",     "abcd",          "abce",
                          "abdc",          "bcde",          "john product",
                          "john products"};
  std::vector<LabeledValue> values;
  for (uint32_t r = 0; r < 150; ++r) {
    const char* text = kTexts[rng.Uniform(10)];
    values.push_back({ValueLabel{r, 0, 0}, Value(text)});
    if (rng.Bernoulli(0.3)) {
      values.push_back({ValueLabel{r, 0, 1}, Value(text)});
    }
    values.push_back({ValueLabel{r, 1, 0}, Value(kTexts[rng.Uniform(10)])});
    const int year = static_cast<int>(rng.UniformInt(1995, 1999));
    values.push_back({ValueLabel{r, 2, 0},
                      rng.Bernoulli(0.5) ? Value(static_cast<double>(year))
                                         : Value(std::to_string(year))});
  }
  return values;
}

struct PinCase {
  const char* name;
  std::vector<LabeledValue> values;
  const char* metric;
  double xi;
  int q;
  size_t max_posting;
  uint64_t join_pairs_fp;
  uint64_t join_ab_pairs_fp;
  uint64_t join_counters_fp;
  uint64_t join_ab_counters_fp;
};

// A change that moves a pairs constant changes the pid order of the
// index built from the join, and must say why.
std::vector<PinCase> PinCases() {
  std::vector<PinCase> cases;
  cases.push_back({"movies jaccard_q2", Movies(240, 7), "jaccard_q2", 0.5, 2,
                   0, 0x86d0d38c74b52444ull, 0xcaa3cd10c3675ca4ull,
                   0x3d4aac71185cde66ull, 0xa0a174590b5e1a32ull});
  cases.push_back({"movies edit", Movies(120, 5), "edit", 0.6, 2,
                   0, 0x9eebf56485608799ull, 0x9506ee3e1818a258ull,
                   0xe09575c1b93fba8bull, 0x37c0101641602fa8ull});
  cases.push_back({"publications jaccard_q3", Publications(200, 11),
                   "jaccard_q3", 0.5, 3, 0,
                   0x9002cd18c4146a3dull, 0xb9be53c657c147b6ull,
                   0xa06bb333bc9f69a1ull, 0xbd38f6605fae3cfaull});
  cases.push_back({"hybrid relative window", HybridValues(23),
                   "hybrid(jaccard_q2)", 0.8, 2, 0,
                   0xa78acf1818bf004dull, 0xd686ac80e39befe8ull,
                   0x8b90d0404b96f2edull, 0x4d05ce48f089b558ull});
  // The metric declares q-gram Jaccard for its strings, so they take
  // the exact prefix and the positional filter.
  cases.push_back({"hybrid numeric_tol window", HybridValues(29),
                   "hybrid(jaccard_q2,numeric_tol30)", 0.6, 2, 0,
                   0x502f5c42224ac2a7ull, 0xc41a75dc0c437f31ull,
                   0x45f6987c22e8fed3ull, 0xba4b16b910c34bccull});
  // The ceiling caps distinct-text entries per posting list, so this
  // case sheds different entries than a per-occurrence ceiling would.
  // It also guards the positional filter's capped-list fallback: once a
  // list sheds, tokens below the first shared prefix token may still
  // match, so the filter charges min(px, py) for them. The exact bound
  // (charge only the shared token) drops true pairs here and moves both
  // pairs fingerprints.
  cases.push_back({"movies posting ceiling", Movies(240, 13), "jaccard_q2",
                   0.4, 2, 6,
                   0x9d5a65f537340dc4ull, 0x87dbca4a304dd42bull,
                   0x4dd01c7dabfafb75ull, 0x2ad368560a20f325ull});
  cases.push_back({"movies monge_elkan", Movies(120, 3), "monge_elkan", 0.7, 2,
                   0, 0xeae9eb7c0e105ffeull, 0xe233f9d065acaf48ull,
                   0x58d691519b8dce9cull, 0x3e233dae98da4f99ull});
  cases.push_back({"duplicates jaccard_q2", DuplicateValues(31), "jaccard_q2",
                   0.5, 2, 0,
                   0x3bda150d5cc22814ull, 0xaa4f98815e6417faull,
                   0xcf17f3abc4cf576eull, 0xb928b21108fac1a6ull});
  cases.push_back({"duplicates edit", DuplicateValues(37), "edit", 0.5, 2,
                   0, 0x66f0835bc5d2c5c3ull, 0x0d4d8336eb1b8a56ull,
                   0xc7a5e9bbe6f3c0a8ull, 0xb1558ed6d15ea72eull});
  cases.push_back({"duplicates monge_elkan", DuplicateValues(41),
                   "monge_elkan", 0.6, 2, 0,
                   0x602a8bbfe4aa1d24ull, 0x34e5630ae83374faull,
                   0xaf3fdfb7d63be816ull, 0x680082bb5cf52f84ull});
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
    for (size_t threads : {1u, 4u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      PrefixFilterJoin join(c.q);
      join.SetExecutor(pool.get());
      const std::string where =
          std::string(c.name) + " threads=" + std::to_string(threads);

      std::vector<ValuePair> out;
      JoinReport report;
      ASSERT_TRUE(
          join.Join(c.values, *metric, c.xi, guard, &out, &report).ok());
      EXPECT_FALSE(out.empty()) << where;
      EXPECT_EQ(c.max_posting > 0, report.shed_posting_entries > 0) << where;
      const uint64_t join_fp = PairsFingerprint(out);
      EXPECT_EQ(join_fp, c.join_pairs_fp)
          << where << " Join pairs fingerprint 0x" << std::hex << join_fp;
      const uint64_t join_counters = CountersFingerprint(report);
      EXPECT_EQ(join_counters, c.join_counters_fp)
          << where << " Join counters fingerprint 0x" << std::hex
          << join_counters;

      JoinReport ab_report;
      ASSERT_TRUE(join.JoinAB(probe, base, *metric, c.xi, guard, &out,
                              &ab_report)
                      .ok());
      EXPECT_FALSE(out.empty()) << where;
      const uint64_t ab_fp = PairsFingerprint(out);
      EXPECT_EQ(ab_fp, c.join_ab_pairs_fp)
          << where << " JoinAB pairs fingerprint 0x" << std::hex << ab_fp;
      const uint64_t ab_counters = CountersFingerprint(ab_report);
      EXPECT_EQ(ab_counters, c.join_ab_counters_fp)
          << where << " JoinAB counters fingerprint 0x" << std::hex
          << ab_counters;
    }
  }
}

}  // namespace
}  // namespace hera
