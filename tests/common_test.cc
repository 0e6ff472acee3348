// Unit tests for src/common: Status, StatusOr, Rng, string utilities,
// UnionFind.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/union_find.h"

namespace hera {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad xi");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad xi");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad xi");
}

TEST(StatusTest, AllNamedConstructors) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
  EXPECT_FALSE(Status::Internal("a") == Status::IOError("a"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  HERA_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_EQ(UsesReturnNotOk(-1).code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- StatusOr

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("gone");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-7), -7);
}

TEST(StatusOrTest, ValueOrReturnsValueWhenOk) {
  StatusOr<std::string> v = std::string("hello");
  EXPECT_EQ(v.value_or("fallback"), "hello");
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  std::vector<int> got = std::move(v).value();
  EXPECT_EQ(got.size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(13), 13u);
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5);
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(21);
  for (int i = 0; i < 500; ++i) EXPECT_LT(rng.Zipf(10, 1.0), 10u);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(23);
  int low = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // Under Zipf(1.0) the first 10 ranks carry well over a third of mass.
  EXPECT_GT(low, kTrials / 3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ChoicePicksExistingElement) {
  Rng rng(37);
  std::vector<std::string> v{"a", "b", "c"};
  for (int i = 0; i < 50; ++i) {
    const std::string& c = rng.Choice(v);
    EXPECT_TRUE(c == "a" || c == "b" || c == "c");
  }
}

// ----------------------------------------------------------- string_util

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split(",a,,b,", ','),
            (std::vector<std::string>{"", "a", "", "b", ""}));
}

TEST(StringUtilTest, SplitEmptyString) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtilTest, TrimRemovesEdgesOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
  EXPECT_EQ(ToUpper("AbC-12"), "ABC-12");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hera_core", "hera"));
  EXPECT_FALSE(StartsWith("he", "hera"));
  EXPECT_TRUE(EndsWith("hera_core", "core"));
  EXPECT_FALSE(EndsWith("re", "core"));
}

struct NumericCase {
  const char* input;
  bool expected;
};

// Prints the input: the default byte dump shows the pointer and padding,
// so the discovered test names would change with every build.
void PrintTo(const NumericCase& c, std::ostream* os) {
  *os << "[" << c.input << "]";
}

class LooksNumericTest : public ::testing::TestWithParam<NumericCase> {};

TEST_P(LooksNumericTest, Classifies) {
  EXPECT_EQ(LooksNumeric(GetParam().input), GetParam().expected)
      << "input=" << GetParam().input;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LooksNumericTest,
    ::testing::Values(NumericCase{"123", true}, NumericCase{"-4.5", true},
                      NumericCase{"+7", true}, NumericCase{" 42 ", true},
                      NumericCase{"1.2.3", false}, NumericCase{"", false},
                      NumericCase{"abc", false}, NumericCase{"12a", false},
                      NumericCase{".", false}, NumericCase{"-", false},
                      NumericCase{"0.5", true}, NumericCase{".5", true}));

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
}

// -------------------------------------------------------------- UnionFind

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(4);
  EXPECT_EQ(uf.NumSets(), 4u);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, UnionKeepsFirstArgumentRoot) {
  UnionFind uf(6);
  EXPECT_EQ(uf.Union(1, 5), 1u);  // Paper: "assume 1 = union(1, 6)".
  EXPECT_EQ(uf.Find(5), 1u);
  EXPECT_EQ(uf.Find(1), 1u);
}

TEST(UnionFindTest, UnionThroughNonRoots) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  // Union via members 1 and 3: representative of 1's set (0) survives.
  EXPECT_EQ(uf.Union(1, 3), 0u);
  EXPECT_EQ(uf.Find(3), 0u);
  EXPECT_EQ(uf.Find(2), 0u);
}

TEST(UnionFindTest, ConnectedAndSetSize) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(0, 2);
  EXPECT_TRUE(uf.Connected(1, 2));
  EXPECT_FALSE(uf.Connected(1, 3));
  EXPECT_EQ(uf.SetSize(2), 3u);
  EXPECT_EQ(uf.SetSize(4), 1u);
  EXPECT_EQ(uf.NumSets(), 3u);
}

TEST(UnionFindTest, SelfUnionIsNoop) {
  UnionFind uf(3);
  uf.Union(0, 1);
  size_t sets = uf.NumSets();
  EXPECT_EQ(uf.Union(0, 1), 0u);
  EXPECT_EQ(uf.NumSets(), sets);
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind uf(3);
  uf.Union(0, 2);
  uf.Reset(5);
  EXPECT_EQ(uf.NumSets(), 5u);
  EXPECT_FALSE(uf.Connected(0, 2));
}

TEST(UnionFindTest, LargeChainCompresses) {
  const uint32_t n = 1000;
  UnionFind uf(n);
  for (uint32_t i = 1; i < n; ++i) uf.Union(0, i);
  EXPECT_EQ(uf.NumSets(), 1u);
  for (uint32_t i = 0; i < n; ++i) EXPECT_EQ(uf.Find(i), 0u);
}

}  // namespace
}  // namespace hera
