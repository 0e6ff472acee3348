// Tests for src/baselines: R-Swoosh, correlation clustering,
// collective ER, naive transitive closure.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "baselines/collective_er.h"
#include "baselines/correlation_clustering.h"
#include "baselines/homogeneous.h"
#include "baselines/naive.h"
#include "baselines/rswoosh.h"
#include "eval/metrics.h"
#include "sim/metrics.h"
#include "testing_util.h"

namespace hera {
namespace {

/// Easy homogeneous dataset: 3 entities x 3 near-duplicate records
/// under one schema; any sane ER method must solve it.
Dataset EasyHomogeneous() {
  Dataset ds;
  uint32_t s = ds.schemas().Register(
      Schema("person", {"name", "city", "phone"}));
  auto add = [&](const char* n, const char* c, const char* p, uint32_t e) {
    ds.AddRecord(s, {Value(n), Value(c), Value(p)});
    ds.entity_of().push_back(e);
  };
  add("Jonathan Smithers", "Springfield", "555-0101", 0);
  add("Jonathan Smithers", "Springfeld", "555-0101", 0);
  add("Jonathan Smitherz", "Springfield", "555-0101", 0);
  add("Mary Bellweather", "Shelbyville", "555-0202", 1);
  add("Mary Bellweather", "Shelbyville", "555-0203", 1);
  add("Mary Belweather", "Shelbyville", "555-0202", 1);
  add("Hubert Wolfenstein", "Capital City", "555-0303", 2);
  add("Hubert Wolfenstein", "Capital City", "555-0303", 2);
  add("Hubert Wolfenstien", "CapitalCity", "555-0303", 2);
  return ds;
}

// ---------------------------------------------------- HomogeneousCluster

TEST(HomogeneousClusterTest, FromRecordKeepsNonNulls) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a", "b", "c"}));
  ds.AddRecord(s, {Value("x"), Value(), Value("z")});
  HomogeneousCluster c = HomogeneousCluster::FromRecord(ds.record(0));
  EXPECT_EQ(c.NumPopulatedAttrs(), 2u);
  EXPECT_EQ(c.members(), (std::vector<uint32_t>{0}));
}

TEST(HomogeneousClusterTest, AbsorbUnionsValuesWithDedup) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a"}));
  ds.AddRecord(s, {Value("x")});
  ds.AddRecord(s, {Value("x")});
  ds.AddRecord(s, {Value("y")});
  HomogeneousCluster c = HomogeneousCluster::FromRecord(ds.record(0));
  c.Absorb(HomogeneousCluster::FromRecord(ds.record(1)));
  EXPECT_EQ(c.attr_values()[0].size(), 1u);  // Dedup.
  c.Absorb(HomogeneousCluster::FromRecord(ds.record(2)));
  EXPECT_EQ(c.attr_values()[0].size(), 2u);
  EXPECT_EQ(c.members().size(), 3u);
}

TEST(HomogeneousClusterTest, SimilarityIdenticalRecords) {
  Dataset ds = EasyHomogeneous();
  auto metric = MakeSimilarity("jaccard_q2");
  HomogeneousCluster a = HomogeneousCluster::FromRecord(ds.record(6));
  HomogeneousCluster b = HomogeneousCluster::FromRecord(ds.record(7));
  EXPECT_DOUBLE_EQ(ClusterSimilarity(a, b, *metric, 0.5), 1.0);
}

TEST(HomogeneousClusterTest, SimilaritySymmetric) {
  Dataset ds = EasyHomogeneous();
  auto metric = MakeSimilarity("jaccard_q2");
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) {
      HomogeneousCluster a = HomogeneousCluster::FromRecord(ds.record(i));
      HomogeneousCluster b = HomogeneousCluster::FromRecord(ds.record(j));
      EXPECT_DOUBLE_EQ(ClusterSimilarity(a, b, *metric, 0.5),
                       ClusterSimilarity(b, a, *metric, 0.5));
    }
  }
}

TEST(CandidatePairsTest, CoversTruePairsOnEasyData) {
  Dataset ds = EasyHomogeneous();
  auto metric = MakeSimilarity("jaccard_q2");
  auto cands = CandidateRecordPairs(ds, *metric, 0.5);
  // All 9 intra-entity pairs must be candidates (they share values).
  std::set<std::pair<uint32_t, uint32_t>> set(cands.begin(), cands.end());
  for (uint32_t i = 0; i < ds.size(); ++i) {
    for (uint32_t j = i + 1; j < ds.size(); ++j) {
      if (ds.entity_of()[i] == ds.entity_of()[j]) {
        EXPECT_TRUE(set.count({i, j})) << i << "," << j;
      }
    }
  }
}

// ------------------------------------------------------------- baselines

struct BaselineCase {
  const char* name;
  std::vector<uint32_t> (*run)(const Dataset&, const ValueSimilarity&);
};

// Prints the case by name: the default byte dump shows the pointers, so
// the discovered test names would change with every build.
void PrintTo(const BaselineCase& c, std::ostream* os) { *os << c.name; }

std::vector<uint32_t> RunRSwoosh(const Dataset& ds, const ValueSimilarity& m) {
  return RSwoosh(ds, m, {0.5, 0.6});
}
std::vector<uint32_t> RunCc(const Dataset& ds, const ValueSimilarity& m) {
  return CorrelationClustering(ds, m, {0.5, 0.6, 42});
}
std::vector<uint32_t> RunCr(const Dataset& ds, const ValueSimilarity& m) {
  return CollectiveER(ds, m, {0.5, 0.6, 0.3});
}
std::vector<uint32_t> RunNaive(const Dataset& ds, const ValueSimilarity& m) {
  return NaivePairwiseER(ds, m, {0.5, 0.6, false});
}

class BaselinePerfectTest : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselinePerfectTest, SolvesEasyHomogeneousData) {
  Dataset ds = EasyHomogeneous();
  auto metric = MakeSimilarity("jaccard_q2");
  auto labels = GetParam().run(ds, *metric);
  ASSERT_EQ(labels.size(), ds.size());
  PairMetrics m = EvaluatePairs(labels, ds.entity_of());
  EXPECT_DOUBLE_EQ(m.f1, 1.0) << GetParam().name;
}

TEST_P(BaselinePerfectTest, EmptyDataset) {
  Dataset ds;
  ds.schemas().Register(Schema("S", {"a"}));
  auto metric = MakeSimilarity("jaccard_q2");
  EXPECT_TRUE(GetParam().run(ds, *metric).empty());
}

TEST_P(BaselinePerfectTest, SingletonsStaySeparate) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"name"}));
  ds.AddRecord(s, {Value("alpha bravo")});
  ds.AddRecord(s, {Value("charlie delta")});
  ds.AddRecord(s, {Value("echo foxtrot")});
  auto metric = MakeSimilarity("jaccard_q2");
  auto labels = GetParam().run(ds, *metric);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[2]);
}

INSTANTIATE_TEST_SUITE_P(
    All, BaselinePerfectTest,
    ::testing::Values(BaselineCase{"rswoosh", RunRSwoosh},
                      BaselineCase{"cc", RunCc}, BaselineCase{"cr", RunCr},
                      BaselineCase{"naive", RunNaive}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return info.param.name;
    });

TEST(NaiveTest, ExhaustiveEqualsBlockedOnEasyData) {
  Dataset ds = EasyHomogeneous();
  auto metric = MakeSimilarity("jaccard_q2");
  auto blocked = NaivePairwiseER(ds, *metric, {0.5, 0.6, false});
  auto exhaustive = NaivePairwiseER(ds, *metric, {0.5, 0.6, true});
  EXPECT_TRUE(testing_util::SamePartition(blocked, exhaustive));
}

TEST(RSwooshTest, MergedInformationEnablesTransitiveMatch) {
  // a matches b and b matches c at delta = 0.75, but a vs c alone
  // scores only 0.5: R-Swoosh's merge-then-rematch must still unify
  // all three through the merged record.
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"name", "email", "phone"}));
  ds.AddRecord(s, {Value("Jonathan Smithers"), Value("jon@mail.test"), Value()});
  ds.AddRecord(s, {Value("Jonathan Smithers"), Value("jon@mail.test"),
                   Value("555-777-0101")});
  ds.AddRecord(s, {Value(), Value("jon@mail.test"), Value("555-777-0101")});
  auto metric = MakeSimilarity("jaccard_q2");
  // Sanity: the weak link really is below threshold on its own.
  HomogeneousCluster a = HomogeneousCluster::FromRecord(ds.record(0));
  HomogeneousCluster c = HomogeneousCluster::FromRecord(ds.record(2));
  ASSERT_LT(ClusterSimilarity(a, c, *metric, 0.5), 0.75);
  auto labels = RSwoosh(ds, *metric, {0.5, 0.75});
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
}

TEST(CorrelationClusteringTest, DifferentSeedsStillValidPartition) {
  Dataset ds = EasyHomogeneous();
  auto metric = MakeSimilarity("jaccard_q2");
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto labels = CorrelationClustering(ds, *metric, {0.5, 0.6, seed});
    ASSERT_EQ(labels.size(), ds.size());
    PairMetrics m = EvaluatePairs(labels, ds.entity_of());
    EXPECT_GE(m.f1, 0.9) << "seed " << seed;  // Easy data: near perfect.
  }
}

TEST(CollectiveERTest, RelationalEvidenceHelps) {
  // (a, b) have attribute similarity 0.75 — below delta = 0.8 — but a
  // fully shared relational neighborhood {c, d} via the exact org
  // value. With alpha = 0.3 the combined similarity is
  // 0.7*0.75 + 0.3*1.0 = 0.825 >= 0.8 and they merge; with alpha = 0
  // they must stay separate. This is the collective effect.
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"name", "org"}));
  ds.AddRecord(s, {Value("J Smith"), Value("Acme Corporation")});      // a
  ds.AddRecord(s, {Value("John Smith"), Value("Acme Corporation")});   // b
  ds.AddRecord(s, {Value("Bob Jones"), Value("Acme Corporation")});    // c
  ds.AddRecord(s, {Value("Bob Jones"), Value("Acme Corporation")});    // d
  auto metric = MakeSimilarity("jaccard_q2");

  auto with_rel = CollectiveER(ds, *metric, {0.5, 0.8, 0.3});
  EXPECT_EQ(with_rel[0], with_rel[1]) << "relational evidence must merge a,b";

  auto without_rel = CollectiveER(ds, *metric, {0.5, 0.8, 0.0});
  EXPECT_NE(without_rel[0], without_rel[1])
      << "attribute similarity alone must not reach delta";
  EXPECT_EQ(without_rel[2], without_rel[3]);  // Identical pair merges.
}

}  // namespace
}  // namespace hera
