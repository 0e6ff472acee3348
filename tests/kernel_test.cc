// Tests for the integer-encoded similarity kernels (sim/kernel.h) and
// the invariants the join and engine build on them: every kernel score
// is bit-equal to the string-path metric, the threshold-bounded forms
// never change which pairs survive, the join's output matches the
// metric path (the same metric under a name the kernels do not
// recognize), and labels and merge sequences are byte-identical at
// every thread count.

#include "sim/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/kernel_dispatch.h"
#include "sim/string_metrics.h"

#include "baselines/homogeneous.h"
#include "blocking/token_blocking.h"
#include "core/hera.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "matching/weight_kernel.h"
#include "sim/metrics.h"
#include "simjoin/similarity_join.h"
#include "text/normalize.h"
#include "text/qgram.h"

namespace hera {
namespace {

// ------------------------------------------------- intersection kernels

std::vector<uint32_t> SortedSet(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<uint32_t> RandomSet(std::mt19937* rng, size_t n, uint32_t lo,
                                uint32_t hi) {
  std::uniform_int_distribution<uint32_t> dist(lo, hi);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) v.push_back(dist(*rng));
  return SortedSet(std::move(v));
}

/// About n/2 fresh ids from [lo, hi] plus roughly half of `base`, so a
/// wide universe still yields large intersections.
std::vector<uint32_t> OverlappingSet(std::mt19937* rng,
                                     const std::vector<uint32_t>& base,
                                     size_t n, uint32_t lo, uint32_t hi) {
  std::vector<uint32_t> v = RandomSet(rng, n / 2, lo, hi);
  for (uint32_t id : base) {
    if ((*rng)() % 2 == 0) v.push_back(id);
  }
  return SortedSet(std::move(v));
}

size_t ReferenceIntersect(const std::vector<uint32_t>& a,
                          const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out.size();
}

/// Set sizes that straddle small powers of two plus a longer tail: an
/// off-by-one in a loop's first step or its end lands exactly there.
constexpr size_t kLengthBuckets[] = {0,  1,  3,  4,  5,  7,  8,  9,  15,
                                     16, 17, 31, 32, 33, 63, 64, 65, 100};

/// The 50000-id universe keeps every pair of bucket-sized sets out of
/// the bitmap window, so balanced sizes take the merge paths.
constexpr uint32_t kWideUniverse = 50000;

/// Every intersection strategy, and the shape-picked IntersectSize in
/// both argument orders, counts the reference intersection.
void ExpectStrategiesAgree(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  size_t want = ReferenceIntersect(a, b);
  EXPECT_EQ(IntersectSizeMerge(a.data(), a.size(), b.data(), b.size()), want);
  EXPECT_EQ(IntersectSizeGallop(a.data(), a.size(), b.data(), b.size()), want);
  EXPECT_EQ(IntersectSizeGallop(b.data(), b.size(), a.data(), a.size()), want);
  if (!a.empty() && !b.empty() && BitmapEligible(a, b)) {
    EXPECT_EQ(IntersectSizeBitmap(a, b), want);
  }
  EXPECT_EQ(IntersectSize(a, b), want) << "na=" << a.size()
                                       << " nb=" << b.size();
  EXPECT_EQ(IntersectSize(b, a), want);
}

TEST(KernelIntersectTest, AllStrategiesAgreeWithReference) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    // Mix of dense windows (bitmap-eligible), skewed sizes (gallop),
    // and wide sparse sets (merge).
    size_t na = trial % 7 == 0 ? 0 : rng() % 64;
    size_t nb = trial % 11 == 0 ? 0 : rng() % 512;
    uint32_t hi = trial % 3 == 0 ? 900 : 100000;
    auto a = RandomSet(&rng, na, 0, hi);
    ExpectStrategiesAgree(a, RandomSet(&rng, nb, 0, hi));
  }
}

// The scalar path is the only intersection tier; the test keeps the
// name it had when vector tiers existed and checks every strategy at
// the bucket lengths where a block loop or its tail would slip.
TEST(KernelSimdTest, AllTiersMatchReferenceAtVectorWidthBuckets) {
  std::mt19937 rng(2024);
  for (size_t na : kLengthBuckets) {
    for (size_t nb : kLengthBuckets) {
      // Dense (many hits), wide and disjoint-ish, and wide with about
      // half of a shared.
      const uint32_t dense = static_cast<uint32_t>(na + nb + 8);
      auto a = RandomSet(&rng, na, 0, dense);
      ExpectStrategiesAgree(a, RandomSet(&rng, nb, 0, dense));
      a = RandomSet(&rng, na, 0, kWideUniverse);
      ExpectStrategiesAgree(a, RandomSet(&rng, nb, 0, kWideUniverse));
      ExpectStrategiesAgree(a, OverlappingSet(&rng, a, nb, 0, kWideUniverse));
    }
  }
}

TEST(KernelIntersectTest, BitmapEligibilityIsAWindowTest) {
  // The window is id-inclusive: exactly kBitmapBits distinct ids fit.
  std::vector<uint32_t> wide = {10, 500, 10 + kBitmapBits};
  EXPECT_FALSE(BitmapEligible(wide, wide));
  std::vector<uint32_t> fits = {10, 500, 10 + kBitmapBits - 1};
  EXPECT_TRUE(BitmapEligible(fits, fits));
  EXPECT_EQ(IntersectSizeBitmap(fits, fits), 3u);
  std::vector<uint32_t> far = {1000000};
  EXPECT_FALSE(BitmapEligible(fits, far));
}

constexpr SetSimKind kAllKinds[] = {SetSimKind::kJaccard, SetSimKind::kDice,
                                    SetSimKind::kOverlap, SetSimKind::kCosine};

// ------------------------------------------- Myers edit-distance kernel

/// Reference corpus for the edit kernels: ASCII, multi-byte UTF-8,
/// embedded NULs, and strings crossing the 64/128 block boundaries.
std::vector<std::string> EditCorpus() {
  std::vector<std::string> corpus = {
      "",
      "a",
      "kitten",
      "sitting",
      "The Matrix (1999)",
      "the matrix",
      "Ein schöner Tag — naïve café",
      "数据库 систем records",
      std::string("nul\0inside", 10),       // embedded NUL
      std::string("\0\0\0", 3),             // all NULs
      std::string(63, 'x'),                 // one word exactly
      std::string(64, 'x'),                 // word boundary
      std::string(65, 'x'),                 // first multi-block length
      std::string(64, 'x') + "y",
      std::string(128, 'a'),                // two-block boundary
      std::string(129, 'b'),
      "entity resolution on heterogeneous records",
  };
  std::mt19937 rng(77);
  std::uniform_int_distribution<int> byte(0, 255);  // Full byte alphabet.
  std::uniform_int_distribution<int> narrow('a', 'd');
  for (int i = 0; i < 30; ++i) {
    std::string s;
    size_t len = rng() % 150;
    for (size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(i % 2 == 0 ? narrow(rng) : byte(rng)));
    }
    corpus.push_back(std::move(s));
  }
  return corpus;
}

TEST(MyersTest, MatchesDpOnCorpusAndBothDirections) {
  const std::vector<std::string> corpus = EditCorpus();
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistanceDp(a, b))
          << "|a|=" << a.size() << " |b|=" << b.size();
    }
  }
}

TEST(MyersTest, BoundedIsExactAtOrAboveTheDistance) {
  const std::vector<std::string> corpus = EditCorpus();
  std::mt19937 rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string& a = corpus[rng() % corpus.size()];
    const std::string& b = corpus[rng() % corpus.size()];
    size_t d = LevenshteinDistanceDp(a, b);
    // Exact at the distance and above it...
    EXPECT_EQ(LevenshteinDistanceBounded(a, b, d), d);
    EXPECT_EQ(LevenshteinDistanceBounded(a, b, d + 3), d);
    // ...and strictly greater than any limit below it.
    if (d > 0) {
      EXPECT_GT(LevenshteinDistanceBounded(a, b, d - 1), d - 1);
    }
  }
}

TEST(MyersTest, NormalizedAtLeastIsExactOrZero) {
  const std::vector<std::string> corpus = EditCorpus();
  std::mt19937 rng(9);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string& a = corpus[rng() % corpus.size()];
    const std::string& b = corpus[rng() % corpus.size()];
    double full = NormalizedLevenshtein(a, b);
    std::vector<double> floors = {0.0, 0.15, 0.5, 0.75, 0.9, 1.0};
    // The distance budget's boundaries: every score this pair's length
    // can take, 1 - k/denom, and its two nextafter neighbours.
    const size_t denom = std::max(Normalize(a).size(), Normalize(b).size());
    for (size_t k = 0; denom > 0 && k <= denom; ++k) {
      const double f =
          1.0 - static_cast<double>(k) / static_cast<double>(denom);
      floors.insert(floors.end(), {std::nextafter(f, -1.0), f,
                                   std::nextafter(f, 2.0)});
    }
    for (double floor : floors) {
      double got = NormalizedLevenshteinAtLeast(a, b, floor);
      if (full >= floor) {
        // Bit-equal: the threshold conversion uses the same double
        // expression NormalizedLevenshtein evaluates.
        EXPECT_EQ(got, full) << "floor=" << floor;
      } else {
        EXPECT_EQ(got, 0.0) << "floor=" << floor;
      }
    }
  }
}

// Every edit distance takes the Myers kernel and counts one call.
TEST(MyersTest, CounterAdvancesOnEveryTier) {
  const uint64_t before = KernelCountersNow().myers_calls;
  LevenshteinDistance("heterogeneous", "heterogenous");
  LevenshteinDistanceBounded("heterogeneous", "heterogenous", 3);
  EXPECT_EQ(KernelCountersNow().myers_calls, before + 2);
}

// ------------------------------------- threshold conversion exactness

double Formula(SetSimKind kind, size_t inter, size_t na, size_t nb) {
  // The same expressions the kernels and string metrics evaluate.
  switch (kind) {
    case SetSimKind::kJaccard:
      return static_cast<double>(inter) / static_cast<double>(na + nb - inter);
    case SetSimKind::kDice:
      return 2.0 * static_cast<double>(inter) / static_cast<double>(na + nb);
    case SetSimKind::kOverlap:
      return static_cast<double>(inter) /
             static_cast<double>(std::min(na, nb));
    case SetSimKind::kCosine:
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(na) * static_cast<double>(nb));
  }
  return 0.0;
}

TEST(KernelThresholdTest, MinOverlapMatchesBruteForce) {
  const double xis[] = {0.0, 0.1, 0.25, 0.5, 0.5000000001, 0.75, 0.9, 1.0};
  for (SetSimKind kind : kAllKinds) {
    for (size_t na = 0; na <= 24; ++na) {
      for (size_t nb = 0; nb <= 24; ++nb) {
        size_t cap = std::min(na, nb);
        for (double xi : xis) {
          size_t got = MinOverlapForThreshold(kind, na, nb, xi);
          // Exactness: o reaches xi under the double formula iff
          // o >= got, for every feasible o.
          for (size_t o = 0; o <= cap; ++o) {
            bool reaches = na > 0 && nb > 0 && Formula(kind, o, na, nb) >= xi;
            EXPECT_EQ(reaches, o >= got)
                << "kind=" << static_cast<int>(kind) << " na=" << na
                << " nb=" << nb << " xi=" << xi << " o=" << o;
          }
        }
      }
    }
  }
}

/// SetSimilarityBounded returns the exact score or the sentinel at
/// every threshold. The expected score is the reference intersection
/// through this file's Formula, not SetSimilarity, so a fault the two
/// kernel entry points share cannot hide.
void ExpectBoundedExact(SetSimKind kind, const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b) {
  const double xis[] = {0.0, 0.2, 0.5, 0.8, 0.95, 1.0};
  double full = a.empty() || b.empty()
                    ? 0.0
                    : Formula(kind, ReferenceIntersect(a, b), a.size(),
                              b.size());
  for (double xi : xis) {
    // Bit-equal, not approximately equal, including the sentinel.
    EXPECT_EQ(SetSimilarityBounded(kind, a, b, xi),
              full >= xi ? full : kBelowThreshold)
        << "kind=" << static_cast<int>(kind) << " na=" << a.size()
        << " nb=" << b.size() << " xi=" << xi;
  }
}

TEST(KernelThresholdTest, BoundedReturnsExactScoreOrSentinel) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    // A 0..200 universe: every pair takes the bitmap path.
    auto a = RandomSet(&rng, rng() % 40, 0, 200);
    auto b = RandomSet(&rng, rng() % 40, 0, 200);
    ExpectBoundedExact(kAllKinds[trial % 4], a, b);
  }
}

// The scalar bounded kernels are the only tier; the test keeps the
// name it had when vector tiers existed. The wide universe reaches the
// bounded gallop on skewed sizes and the bounded merge, with its
// abandon test, on balanced ones.
TEST(KernelSimdTest, BoundedSimilarityBitEqualAcrossTiers) {
  std::mt19937 rng(31337);
  int trial = 0;
  for (size_t na : kLengthBuckets) {
    for (size_t nb : kLengthBuckets) {
      auto a = RandomSet(&rng, na, 0, kWideUniverse);
      ExpectBoundedExact(kAllKinds[trial++ % 4], a,
                         RandomSet(&rng, nb, 0, kWideUniverse));
      ExpectBoundedExact(kAllKinds[trial++ % 4], a,
                         OverlappingSet(&rng, a, nb, 0, kWideUniverse));
    }
  }
}

// ------------------------------------------ bit-equality vs string path

std::vector<std::string> TestCorpus() {
  std::vector<std::string> corpus = {
      "",                        // empty -> empty gram set
      "a",                       // shorter than q
      "The Matrix (1999)",
      "the matrix",
      "  THE   MATRIX  ",        // collapses to the same normal form
      "Star Wars: Episode IV - A New Hope",
      "star wars episode iv",
      "Ein schöner Tag — naïve café",  // multi-byte UTF-8
      "数据库 систем records",          // CJK + Cyrillic bytes
      "aaaaaaaaaaaa",            // single repeated gram
      "J. R. R. Tolkien",
      "Tolkien, J.R.R.",
      "entity resolution on heterogeneous records",
      "efficient entity resolution",
  };
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> ch('a', 'e');  // Narrow alphabet: overlap.
  for (int i = 0; i < 40; ++i) {
    std::string s;
    size_t len = rng() % 20;
    for (size_t j = 0; j < len; ++j) s.push_back(static_cast<char>(ch(rng)));
    corpus.push_back(s);
  }
  return corpus;
}

TEST(KernelBitEqualityTest, KernelScoresMatchStringMetricsExactly) {
  const char* bases[] = {"jaccard", "dice", "overlap", "cosine"};
  for (int k = 0; k < 4; ++k) {
    for (int q = 1; q <= 3; ++q) {
      std::string name = std::string(bases[k]) + "_q" + std::to_string(q);
      auto metric = MakeSimilarity(name);
      ASSERT_NE(metric, nullptr) << name;
      SetSimKind kind;
      ASSERT_TRUE(GramMetricKind(metric->Name(), q, &kind)) << name;

      std::vector<std::string> corpus = TestCorpus();
      // Dictionary built from only half the corpus, so the other half
      // exercises the unknown-gram (fresh id) path.
      QgramDictionary dict(q);
      for (size_t i = 0; i < corpus.size() / 2; ++i) {
        dict.Add(Normalize(corpus[i]));
      }
      dict.Freeze();
      std::vector<std::vector<uint32_t>> ids;
      ids.reserve(corpus.size());
      for (const std::string& s : corpus) ids.push_back(dict.Encode(Normalize(s)));

      for (size_t i = 0; i < corpus.size(); ++i) {
        for (size_t j = 0; j < corpus.size(); ++j) {
          double want = metric->Compute(Value(corpus[i]), Value(corpus[j]));
          double got = SetSimilarity(kind, ids[i], ids[j]);
          // Bitwise equality: the whole determinism story rests on it.
          EXPECT_EQ(want, got) << name << " i=" << i << " j=" << j << " \""
                               << corpus[i] << "\" vs \"" << corpus[j] << "\"";
        }
      }
    }
  }
}

TEST(KernelBitEqualityTest, GramMetricKindRecognizesExactlyTheKernelFamily) {
  SetSimKind kind;
  EXPECT_TRUE(GramMetricKind("jaccard_q2", 2, &kind));
  EXPECT_EQ(kind, SetSimKind::kJaccard);
  EXPECT_TRUE(GramMetricKind("hybrid(dice_q3)", 3, &kind));
  EXPECT_EQ(kind, SetSimKind::kDice);
  EXPECT_TRUE(GramMetricKind("overlap_q1", 1, &kind));
  EXPECT_EQ(kind, SetSimKind::kOverlap);
  EXPECT_TRUE(GramMetricKind("cosine_q2", 2, &kind));
  EXPECT_EQ(kind, SetSimKind::kCosine);
  // q mismatch, non-set metrics, and two-argument hybrids are rejected.
  EXPECT_FALSE(GramMetricKind("jaccard_q3", 2, &kind));
  EXPECT_FALSE(GramMetricKind("edit", 2, &kind));
  EXPECT_FALSE(GramMetricKind("jaro_winkler", 2, &kind));
  EXPECT_FALSE(GramMetricKind("hybrid(jaccard_q2,numeric)", 2, &kind));
  EXPECT_FALSE(GramMetricKind("jaccard_q22", 2, &kind));
}

TEST(KernelBitEqualityTest, GramMetricSizeParsesExactlyTheKernelFamily) {
  EXPECT_EQ(GramMetricSize("jaccard_q2"), 2);
  EXPECT_EQ(GramMetricSize("jaccard_q3"), 3);
  EXPECT_EQ(GramMetricSize("hybrid(dice_q3)"), 3);
  EXPECT_EQ(GramMetricSize("overlap_q1"), 1);
  EXPECT_EQ(GramMetricSize("cosine_q12"), 12);
  // Non-gram families and malformed suffixes map to 0.
  EXPECT_EQ(GramMetricSize("edit"), 0);
  EXPECT_EQ(GramMetricSize("jaro_winkler"), 0);
  EXPECT_EQ(GramMetricSize("hybrid(jaccard_q2,numeric)"), 0);
  EXPECT_EQ(GramMetricSize("jaccard_q"), 0);
  EXPECT_EQ(GramMetricSize("jaccard_q0"), 0);
  EXPECT_EQ(GramMetricSize("soft_tfidf_q2"), 0);  // Not a kernel metric.
}

TEST(KernelBitEqualityTest, NewMetricRegistryEntriesResolve) {
  for (const char* name : {"dice", "dice_q2", "dice_q3", "overlap",
                           "overlap_q1", "hybrid(dice_q2)"}) {
    auto metric = MakeSimilarity(name);
    ASSERT_NE(metric, nullptr) << name;
    // Symmetric sanity + self-similarity of a non-trivial string.
    Value v("heterogeneous records");
    EXPECT_EQ(metric->Compute(v, v), 1.0) << name;
  }
  EXPECT_EQ(MakeSimilarity("dice_q0"), nullptr);
  EXPECT_EQ(MakeSimilarity("overlap_qx"), nullptr);
}

// --------------------------------------------- join-level equivalence

/// Test oracle for the kernel paths: forwards Compute to a real metric
/// under a name that GramMetricKind and the join's Jaccard check do not
/// recognize, so PrefixFilterJoin and BestPairScorer score every
/// candidate with the metric itself. A "hybrid(" prefix survives, so
/// numbers still take the numeric sweep.
class MetricPathSimilarity : public ValueSimilarity {
 public:
  explicit MetricPathSimilarity(ValueSimilarityPtr inner)
      : inner_(std::move(inner)) {}
  double Compute(const Value& a, const Value& b) const override {
    return inner_->Compute(a, b);
  }
  std::string Name() const override {
    return inner_->Name() + " [metric path]";
  }

 private:
  ValueSimilarityPtr inner_;
};

using PairTuple = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, uint32_t,
                             uint32_t, double>;

std::vector<PairTuple> AsTuples(const std::vector<ValuePair>& pairs) {
  std::vector<PairTuple> out;
  out.reserve(pairs.size());
  for (const ValuePair& p : pairs) {
    out.push_back({p.a.rid, p.a.fid, p.a.vid, p.b.rid, p.b.fid, p.b.vid, p.sim});
  }
  return out;
}

/// The pairs as a sorted set, each oriented smaller label first: joins
/// may emit and orient an unordered pair differently.
std::vector<PairTuple> CanonicalPairs(std::vector<ValuePair> pairs) {
  for (ValuePair& p : pairs) {
    if (std::tie(p.b.rid, p.b.fid, p.b.vid) <
        std::tie(p.a.rid, p.a.fid, p.a.vid)) {
      std::swap(p.a, p.b);
    }
  }
  std::vector<PairTuple> v = AsTuples(pairs);
  std::sort(v.begin(), v.end());
  return v;
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

Dataset SmallMovies(size_t records = 90, uint64_t seed = 7) {
  MovieGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 5;
  config.seed = seed;
  return GenerateMovieDataset(config);
}

TEST(KernelJoinTest, KernelTogglePreservesJoinOutputForEveryGramMetric) {
  Dataset ds = SmallMovies();
  std::vector<LabeledValue> values = ValuesOf(ds);
  for (const char* name :
       {"jaccard_q2", "dice_q2", "overlap_q2", "cosine_q2",
        "hybrid(jaccard_q2)"}) {
    auto metric = MakeSimilarity(name);
    ASSERT_NE(metric, nullptr) << name;
    const MetricPathSimilarity oracle(metric);
    std::vector<ValuePair> kernel, metric_path;
    PrefixFilterJoin join;
    ASSERT_TRUE(join.Join(values, *metric, 0.5, RunGuard(), &kernel).ok());
    ASSERT_TRUE(
        join.Join(values, oracle, 0.5, RunGuard(), &metric_path).ok());
    ASSERT_FALSE(kernel.empty()) << name;
    if (std::string(name).find("jaccard") != std::string::npos) {
      // The oracle is not recognized as Jaccard, so it blocks at the
      // slackened prefix without the positional filter: same
      // pairs, possibly found in another order.
      EXPECT_EQ(CanonicalPairs(kernel), CanonicalPairs(metric_path)) << name;
    } else {
      // Same filters either way; only the verifier differs.
      EXPECT_EQ(AsTuples(kernel), AsTuples(metric_path)) << name;
    }
  }
}

/// `s` with one random variation Normalize folds away (ASCII case,
/// punctuation, spacing) or one it keeps (an ASCII byte edit).
std::string Vary(std::string s, std::mt19937* rng) {
  switch ((*rng)() % 5) {
    case 0:
      for (char& c : s) {
        if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      }
      break;
    case 1:
      s = "\"" + s + "!\"";
      break;
    case 2:
      if (size_t at = s.find(' '); at != std::string::npos) {
        s.replace(at, 1, " ,  ");
      }
      break;
    case 3: {
      size_t at = (*rng)() % s.size();
      if (static_cast<unsigned char>(s[at]) < 0x80) s[at] = 'q';
      break;
    }
    default:
      break;
  }
  return s;
}

/// Values of 90 records over 15 entities for the edit-join oracle: a
/// short title (some multi-byte UTF-8), a description past one Myers
/// word (> 64 bytes; a third past two, > 128), and a year or a title
/// the record repeats. Records of one entity differ by Vary, twice
/// over, so normalization and the banded kernel both decide scores.
std::vector<LabeledValue> EditJoinCorpus() {
  const std::vector<std::string> titles = {
      "The Matrix Reloaded",      "Ein schöner Tag — naïve café",
      "数据库 систем records",    "Heat (1995)",
      "L.A. Confidential",        "Crouching Tiger, Hidden Dragon",
      "Amélie",                   "Spirited Away",
      "The Matrix Revolutions",   "Heat",
      "Les Misérables",           "Crouching Tiger",
      "Spirited Away: The Movie", "L.A. Story",
      "Straße nach Süden"};
  std::mt19937 rng(41);
  std::vector<LabeledValue> values;
  for (uint32_t rid = 0; rid < 90; ++rid) {
    const size_t e = rid % titles.size();
    std::string description =
        titles[e] + " is a film about entity resolution across "
                    "heterogeneous records and sources";
    if (e % 3 == 0) description += ", told twice: " + description;
    const Value third =
        e % 2 == 0 ? Value(static_cast<double>(1960 + e * 3 + rid % 2))
                   : Value(Vary(titles[e], &rng));
    values.push_back({{rid, 0, 0}, Value(Vary(Vary(titles[e], &rng), &rng))});
    values.push_back({{rid, 1, 0}, Value(Vary(Vary(description, &rng), &rng))});
    values.push_back({{rid, 2, 0}, third});
  }
  return values;
}

TEST(KernelJoinTest, EditJoinMatchesMetricPathBitForBit) {
  // The edit family verifies on the tokenize phase's normalized texts
  // with the floor-aware banded Levenshtein; the metric-path oracle
  // calls simv.Compute behind the same slackened filters. Emission
  // order, sims (bitwise) and the filter/verify counters must agree.
  const std::vector<LabeledValue> values = EditJoinCorpus();
  std::vector<LabeledValue> probe, base;
  for (const LabeledValue& lv : values) {
    (lv.label.rid % 10 < 7 ? probe : base).push_back(lv);
  }
  for (const char* name :
       {"edit", "hybrid(edit)", "hybrid(edit,numeric_tol30)"}) {
    auto metric = MakeSimilarity(name);
    ASSERT_NE(metric, nullptr) << name;
    const MetricPathSimilarity oracle(metric);
    for (size_t threads : {1u, 4u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      PrefixFilterJoin join;
      join.SetExecutor(pool.get());
      for (double xi : {0.3, 0.5, 0.6, 0.9}) {
        for (bool ab : {false, true}) {
          const std::string where =
              std::string(name) + (ab ? " JoinAB" : " Join") +
              " xi=" + std::to_string(xi) +
              " threads=" + std::to_string(threads);
          std::vector<ValuePair> got, want;
          JoinReport got_report, want_report;
          if (ab) {
            ASSERT_TRUE(join.JoinAB(probe, base, *metric, xi, RunGuard(),
                                    &got, &got_report)
                            .ok());
            ASSERT_TRUE(join.JoinAB(probe, base, oracle, xi, RunGuard(),
                                    &want, &want_report)
                            .ok());
          } else {
            ASSERT_TRUE(
                join.Join(values, *metric, xi, RunGuard(), &got, &got_report)
                    .ok());
            ASSERT_TRUE(
                join.Join(values, oracle, xi, RunGuard(), &want, &want_report)
                    .ok());
          }
          ASSERT_FALSE(want.empty()) << where;
          EXPECT_EQ(AsTuples(got), AsTuples(want)) << where;
          EXPECT_EQ(got_report.candidates, want_report.candidates) << where;
          EXPECT_EQ(got_report.verified, want_report.verified) << where;
          EXPECT_EQ(got_report.distinct_emitted, want_report.distinct_emitted)
              << where;
        }
      }
    }
  }
}

/// Distinct gram ids a join over `values` at gram length q assigns:
/// one per distinct gram of the values' normalized renderings.
size_t GramVocabulary(const std::vector<LabeledValue>& values, int q) {
  std::set<std::string> grams;
  for (const LabeledValue& lv : values) {
    for (std::string& g : QgramSet(Normalize(lv.value.ToString()), q)) {
      grams.insert(std::move(g));
    }
  }
  return grams.size();
}

/// Values of 120 records over 40 entities whose 2-gram ids span far
/// more than 1024: each entity is a random string over ASCII letters,
/// digits and two-byte UTF-8 letters (grams are bytes), and each record
/// holds it and a longer description with one or two letters replaced.
std::vector<LabeledValue> WideGramCorpus() {
  std::vector<std::string> letters;
  for (char c = 'a'; c <= 'z'; ++c) letters.emplace_back(1, c);
  for (char c = '0'; c <= '9'; ++c) letters.emplace_back(1, c);
  for (int b = 0xA0; b <= 0xBF; ++b) {
    letters.push_back({static_cast<char>(0xC3), static_cast<char>(b)});
  }
  std::mt19937 rng(29);
  auto word = [&](size_t n) {
    std::vector<std::string> w;
    for (size_t i = 0; i < n; ++i) w.push_back(letters[rng() % letters.size()]);
    return w;
  };
  auto render = [](const std::vector<std::string>& w) {
    std::string s;
    for (const std::string& l : w) s += l;
    return s;
  };
  std::vector<LabeledValue> values;
  for (uint32_t e = 0; e < 40; ++e) {
    const std::vector<std::string> name = word(12 + e % 9);
    const std::vector<std::string> about = word(30 + e % 13);
    for (uint32_t r = 0; r < 3; ++r) {
      std::vector<std::string> n = name, a = about;
      for (uint32_t edits = 0; edits < 1 + r % 2; ++edits) {
        n[rng() % n.size()] = letters[rng() % letters.size()];
        a[rng() % a.size()] = letters[rng() % letters.size()];
      }
      const uint32_t rid = e * 3 + r;
      values.push_back({{rid, 0, 0}, Value(render(n))});
      values.push_back({{rid, 1, 0}, Value(render(n) + " " + render(a))});
    }
  }
  return values;
}

TEST(KernelJoinTest, ProbeBitmapVerifyMatchesMetricPathBitForBit) {
  // The kernel plan scores candidates against the probe's dictionary
  // bitmap, starting after the first shared prefix token when no
  // posting list is capped and at the candidate's first token when one
  // is. The oracle scores every candidate with simv.Compute behind the
  // same lists: for Jaccard its join runs without filter slack, so the
  // prefixes match and the positional filter (Jaccard only) is the one
  // filter it lacks. Emission order, sims (bitwise) and the work
  // counters must agree, with and without a posting ceiling.
  struct Corpus {
    const char* name;
    std::vector<LabeledValue> values;
  };
  const std::vector<Corpus> corpora = {
      {"movies-90", ValuesOf(SmallMovies(90, 7))},
      {"wide-grams", WideGramCorpus()}};
  // The wide corpus's ids span more than one 1024-bit window.
  ASSERT_GT(GramVocabulary(corpora[1].values, 2), 1024u);
  struct MetricCase {
    const char* metric;
    int q;
  };
  for (const Corpus& corpus : corpora) {
    std::vector<LabeledValue> probe, base;
    for (const LabeledValue& lv : corpus.values) {
      (lv.label.rid % 10 < 7 ? probe : base).push_back(lv);
    }
    for (const MetricCase mc :
         {MetricCase{"jaccard_q2", 2}, MetricCase{"dice_q2", 2},
          MetricCase{"overlap_q2", 2}, MetricCase{"cosine_q2", 2},
          MetricCase{"jaccard_q3", 3}}) {
      auto metric = MakeSimilarity(mc.metric);
      ASSERT_NE(metric, nullptr) << mc.metric;
      const MetricPathSimilarity oracle(metric);
      const bool jaccard = std::string(mc.metric).rfind("jaccard", 0) == 0;
      for (size_t max_posting : {0u, 4u}) {
        RunGuard guard;
        if (max_posting > 0) guard.WithMaxPostingList(max_posting);
        for (size_t threads : {1u, 4u}) {
          std::unique_ptr<ThreadPool> pool;
          if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
          PrefixFilterJoin join(mc.q);
          PrefixFilterJoin oracle_join(mc.q, jaccard ? 1.0 : 0.7);
          join.SetExecutor(pool.get());
          oracle_join.SetExecutor(pool.get());
          for (bool ab : {false, true}) {
            const std::string where =
                std::string(corpus.name) + " " + mc.metric +
                (ab ? " JoinAB" : " Join") +
                " max_posting=" + std::to_string(max_posting) +
                " threads=" + std::to_string(threads);
            std::vector<ValuePair> got, want;
            JoinReport got_report, want_report;
            if (ab) {
              ASSERT_TRUE(join.JoinAB(probe, base, *metric, 0.5, guard, &got,
                                      &got_report)
                              .ok());
              ASSERT_TRUE(oracle_join
                              .JoinAB(probe, base, oracle, 0.5, guard, &want,
                                      &want_report)
                              .ok());
            } else {
              ASSERT_TRUE(join.Join(corpus.values, *metric, 0.5, guard, &got,
                                    &got_report)
                              .ok());
              ASSERT_TRUE(oracle_join
                              .Join(corpus.values, oracle, 0.5, guard, &want,
                                    &want_report)
                              .ok());
            }
            ASSERT_FALSE(want.empty()) << where;
            EXPECT_EQ(max_posting > 0, got_report.shed_posting_entries > 0)
                << where;
            EXPECT_EQ(AsTuples(got), AsTuples(want)) << where;
            EXPECT_EQ(got_report.emitted, want_report.emitted) << where;
            if (!jaccard) {
              EXPECT_EQ(got_report.pruned_positional, 0u) << where;
            }
            // The oracle verifies what the positional filter pruned,
            // and none of it reaches xi.
            const size_t got_candidates =
                got_report.candidates + got_report.pruned_positional;
            const size_t got_verified =
                got_report.verified + got_report.pruned_positional;
            // The self-join's second orientation of an equal-size pair
            // is counted by neither plan.
            EXPECT_EQ(got_candidates, want_report.candidates) << where;
            EXPECT_EQ(got_verified, want_report.verified) << where;
            EXPECT_EQ(got_report.distinct_emitted, want_report.distinct_emitted)
                << where;
          }
        }
      }
    }
  }
}

TEST(KernelJoinTest, KernelJoinMatchesNestedLoopOracleForJaccard) {
  // String values only: the filter stack's exactness claim is for
  // q-gram Jaccard over strings (the numeric sweep handles numbers and
  // intentionally never cross-compares a number against a string,
  // unlike the type-blind oracle).
  Dataset ds = SmallMovies(70, 3);
  std::vector<LabeledValue> values;
  for (LabeledValue& lv : ValuesOf(ds)) {
    if (lv.value.is_string()) values.push_back(std::move(lv));
  }
  auto metric = MakeSimilarity("jaccard_q2");
  ASSERT_NE(metric, nullptr);
  std::vector<ValuePair> oracle_out, fast_out;
  NestedLoopJoin oracle;
  ASSERT_TRUE(oracle.Join(values, *metric, 0.5, RunGuard(), &oracle_out).ok());
  PrefixFilterJoin fast;
  ASSERT_TRUE(fast.Join(values, *metric, 0.5, RunGuard(), &fast_out).ok());
  EXPECT_EQ(CanonicalPairs(oracle_out), CanonicalPairs(fast_out));
}

TEST(KernelJoinTest, FilterCountersAreConsistent) {
  Dataset ds = SmallMovies(120, 17);
  std::vector<LabeledValue> values = ValuesOf(ds);
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  std::vector<ValuePair> out;
  JoinReport report;
  PrefixFilterJoin join;
  ASSERT_TRUE(join.Join(values, *metric, 0.5, RunGuard(), &out, &report).ok());
  EXPECT_EQ(report.emitted, out.size());
  EXPECT_GE(report.candidates, report.verified);
  EXPECT_GE(report.verified, report.emitted);
  // The positional filter should actually prune something on real
  // data; the join has no suffix filter.
  EXPECT_GT(report.pruned_positional, 0u);
  EXPECT_EQ(report.pruned_suffix, 0u);

  // On the metric path the positional filter is disarmed; the
  // slackened prefix finds the same pairs.
  const MetricPathSimilarity oracle(metric);
  std::vector<ValuePair> out_off;
  JoinReport report_off;
  ASSERT_TRUE(
      join.Join(values, oracle, 0.5, RunGuard(), &out_off, &report_off).ok());
  EXPECT_EQ(report_off.pruned_positional, 0u);
  EXPECT_EQ(report_off.pruned_suffix, 0u);
  EXPECT_EQ(CanonicalPairs(out), CanonicalPairs(out_off));
}

// ------------------------------------------------ engine determinism

struct RunSignature {
  std::vector<uint32_t> labels;
  std::vector<std::pair<uint32_t, uint32_t>> merge_sequence;
  size_t merges, comparisons, iterations;
};

RunSignature SignatureOf(const HeraResult& result) {
  return {result.entity_of, result.stats.merge_sequence, result.stats.merges,
          result.stats.comparisons, result.stats.iterations};
}

void ExpectSameSignature(const RunSignature& a, const RunSignature& b,
                         const std::string& what) {
  EXPECT_EQ(a.labels, b.labels) << what;
  EXPECT_EQ(a.merge_sequence, b.merge_sequence) << what;
  EXPECT_EQ(a.merges, b.merges) << what;
  EXPECT_EQ(a.comparisons, b.comparisons) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
}

TEST(KernelEngineTest, KnobsAndThreadsNeverChangeTheRun) {
  MovieGeneratorConfig mconfig;
  mconfig.num_records = 220;
  mconfig.num_entities = 44;
  mconfig.seed = 7;
  PublicationGeneratorConfig pconfig;
  pconfig.num_records = 180;
  pconfig.num_entities = 45;
  pconfig.seed = 11;
  const Dataset datasets[] = {GenerateMovieDataset(mconfig),
                              GeneratePublicationDataset(pconfig)};
  for (const Dataset& ds : datasets) {
    HeraOptions base;  // serial.
    auto want_result = Hera(base).Run(ds);
    ASSERT_TRUE(want_result.ok());
    ASSERT_GT(want_result->stats.merges, 0u);
    RunSignature want = SignatureOf(*want_result);
    for (size_t threads : {0u, 4u, 8u}) {
      HeraOptions opts;
      opts.num_threads = threads;
      auto got = Hera(opts).Run(ds);
      ASSERT_TRUE(got.ok());
      ExpectSameSignature(want, SignatureOf(*got),
                          "threads=" + std::to_string(threads));
    }
  }
}

TEST(KernelEngineTest, Q3MetricArmsKernelsAndStaysLossless) {
  // q = 3 metrics index at their own gram size (GramMetricSize), which
  // arms the encoded kernels and the exact PPJoin+ filters. The trigram
  // universe outgrows the bitmap window, so this is also the path where
  // a whole resolution actually reaches the bounded merge.
  PublicationGeneratorConfig config;
  config.num_records = 260;
  config.num_entities = 52;
  config.seed = 31;
  Dataset ds = GeneratePublicationDataset(config);
  HeraOptions base;
  base.metric = "jaccard_q3";
  auto want_result = Hera(base).Run(ds);
  ASSERT_TRUE(want_result.ok());
  ASSERT_GT(want_result->stats.merges, 0u);
  // The prefix-filter join at q = 3 is lossless: the O(n^2) oracle
  // resolves to the same labels.
  HeraOptions oracle;
  oracle.metric = "jaccard_q3";
  oracle.use_prefix_filter_join = false;
  auto got = Hera(oracle).Run(ds);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(want_result->entity_of, got->entity_of) << "nested-loop oracle";
}

// --------------------------------------- dense weight loops (baselines)

/// Random value mix: strings from the shared corpus, numbers, nulls.
std::vector<Value> RandomValues(std::mt19937* rng,
                                const std::vector<std::string>& corpus,
                                size_t n) {
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch ((*rng)() % 5) {
      case 0:
        out.push_back(Value(static_cast<double>((*rng)() % 2000)));
        break;
      case 1:
        out.push_back(Value());  // null
        break;
      default:
        out.push_back(Value(corpus[(*rng)() % corpus.size()]));
        break;
    }
  }
  return out;
}

/// The loop BestPairScorer replaces, verbatim.
double BruteBest(const std::vector<Value>& a, const std::vector<Value>& b,
                 const ValueSimilarity& simv) {
  double best = 0.0;
  for (const Value& va : a) {
    for (const Value& vb : b) best = std::max(best, simv.Compute(va, vb));
  }
  return best;
}

TEST(BestPairScorerTest, ExactWheneverMaxReachesFloor) {
  const char* metrics[] = {"jaccard_q2",   "dice_q2",
                           "overlap_q3",   "hybrid(jaccard_q2)",
                           "edit",         "hybrid(edit)",
                           "hybrid(edit,numeric_tol30)"};
  const std::vector<std::string> corpus = TestCorpus();
  for (const char* name : metrics) {
    auto simv = MakeSimilarity(name);
    ASSERT_NE(simv, nullptr) << name;
    BestPairScorer scorer(*simv);
    std::mt19937 rng(7);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Value> a = RandomValues(&rng, corpus, 1 + rng() % 6);
      std::vector<Value> b = RandomValues(&rng, corpus, 1 + rng() % 6);
      double want = BruteBest(a, b, *simv);
      for (double floor : {0.0, 0.3, 0.5, 0.9}) {
        double got = scorer.BestAtLeast(a, b, floor);
        if (want >= floor) {
          // Bitwise, not approximate: the kernel evaluates the same
          // floating-point expression as the string metric.
          EXPECT_EQ(got, want) << name << " floor=" << floor;
        } else {
          EXPECT_LT(got, floor) << name << " floor=" << floor;
        }
      }
    }
  }
}

TEST(BestPairScorerTest, KernelDetectionMatchesTheMetricFamily) {
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("jaccard_q2")).kernel_active());
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("cosine_q3")).kernel_active());
  EXPECT_TRUE(
      BestPairScorer(*MakeSimilarity("hybrid(dice_q2)")).kernel_active());
  EXPECT_FALSE(BestPairScorer(*MakeSimilarity("edit")).kernel_active());
  EXPECT_FALSE(BestPairScorer(*MakeSimilarity("jaro_winkler")).kernel_active());
  // Edit-family metrics take the bounded Myers path instead.
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("edit")).edit_active());
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("hybrid(edit)")).edit_active());
  EXPECT_TRUE(BestPairScorer(*MakeSimilarity("hybrid(edit,numeric_tol30)"))
                  .edit_active());
  EXPECT_FALSE(BestPairScorer(*MakeSimilarity("jaccard_q2")).edit_active());
  EXPECT_FALSE(
      BestPairScorer(*MakeSimilarity("hybrid(jaccard_q2,numeric_tol30)"))
          .edit_active());
  EXPECT_FALSE(IsEditMetric("edit [metric path]"));
  EXPECT_FALSE(IsEditMetric("hybrid(edit"));
  EXPECT_FALSE(IsEditMetric("jaro_winkler"));
}

TEST(BestPairScorerTest, ClusterSimilarityIdenticalWithScorerOnAndOff) {
  const std::vector<std::string> corpus = TestCorpus();
  auto simv = MakeSimilarity("hybrid(jaccard_q2)");
  // The oracle name makes the scorer fall back to simv.Compute per cell.
  const MetricPathSimilarity oracle(simv);
  BestPairScorer on(*simv);
  BestPairScorer off(oracle);
  ASSERT_TRUE(on.kernel_active());
  ASSERT_FALSE(off.kernel_active());
  std::mt19937 rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    // Two members per cluster so attributes hold several values each.
    HomogeneousCluster ca = HomogeneousCluster::FromRecord(
        Record(0, 0, RandomValues(&rng, corpus, 4)));
    ca.Absorb(HomogeneousCluster::FromRecord(
        Record(2, 0, RandomValues(&rng, corpus, 4))));
    HomogeneousCluster cb = HomogeneousCluster::FromRecord(
        Record(1, 0, RandomValues(&rng, corpus, 4)));
    cb.Absorb(HomogeneousCluster::FromRecord(
        Record(3, 0, RandomValues(&rng, corpus, 4))));
    for (double xi : {0.3, 0.5, 0.8}) {
      EXPECT_EQ(ClusterSimilarity(ca, cb, on, xi),
                ClusterSimilarity(ca, cb, off, xi));
    }
  }
}

TEST(BestPairScorerTest, TokenBlockingLabelsUnchangedByKernelToggle) {
  MovieGeneratorConfig config;
  config.num_records = 150;
  config.num_entities = 30;
  config.seed = 21;
  Dataset ds = GenerateMovieDataset(config);
  auto simv = MakeSimilarity("hybrid(jaccard_q2)");
  const MetricPathSimilarity oracle(simv);
  TokenBlockingEROptions options;
  EXPECT_EQ(TokenBlockingER(ds, *simv, options),
            TokenBlockingER(ds, oracle, options));
}

}  // namespace
}  // namespace hera
