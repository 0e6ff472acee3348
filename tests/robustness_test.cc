// Robustness and failure-injection tests: adversarial inputs that a
// production ER library must survive — degenerate values, extreme
// configurations, hostile datasets — plus randomized invariant checks
// over the whole pipeline.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/run_guard.h"
#include "core/hera.h"
#include "core/incremental.h"
#include "data/ambiguity_generator.h"
#include "data/csv.h"
#include "data/publication_generator.h"
#include "eval/metrics.h"
#include "sim/metrics.h"
#include "simjoin/similarity_join.h"
#include "testing_util.h"

namespace hera {
namespace {

// ------------------------------------------------ degenerate datasets

TEST(RobustnessTest, SingleCharacterValues) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a"}));
  for (const char* v : {"x", "y", "x", "z", "x"}) {
    ds.AddRecord(s, {Value(v)});
  }
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  // The three "x" records must land together.
  EXPECT_EQ(result->entity_of[0], result->entity_of[2]);
  EXPECT_EQ(result->entity_of[0], result->entity_of[4]);
  EXPECT_NE(result->entity_of[0], result->entity_of[1]);
}

TEST(RobustnessTest, PunctuationOnlyValues) {
  // Values that normalize to empty must not match anything.
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a"}));
  ds.AddRecord(s, {Value("!!!")});
  ds.AddRecord(s, {Value("...")});
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->entity_of[0], result->entity_of[1]);
}

TEST(RobustnessTest, VeryLongValues) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"text"}));
  std::string longv(10000, 'a');
  for (size_t i = 0; i < 5000; i += 2) longv[i] = 'b';
  ds.AddRecord(s, {Value(longv)});
  ds.AddRecord(s, {Value(longv)});
  ds.AddRecord(s, {Value(std::string(10000, 'c'))});
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of[0], result->entity_of[1]);
  EXPECT_NE(result->entity_of[0], result->entity_of[2]);
}

TEST(RobustnessTest, NonAsciiBytesSurvive) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"name"}));
  ds.AddRecord(s, {Value("Ren\xc3\xa9 Fran\xc3\xa7ois")});
  ds.AddRecord(s, {Value("Ren\xc3\xa9 Fran\xc3\xa7ois")});
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of[0], result->entity_of[1]);
}

TEST(RobustnessTest, ExtremeNumericValues) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"n"}));
  ds.AddRecord(s, {Value(1e300)});
  ds.AddRecord(s, {Value(-1e300)});
  ds.AddRecord(s, {Value(0.0)});
  ds.AddRecord(s, {Value(1e-300)});
  HeraOptions opts;
  opts.metric = "hybrid(jaccard_q2)";
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of.size(), 4u);
}

TEST(RobustnessTest, SchemaWithSingleAttribute) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"only"}));
  ds.AddRecord(s, {Value("alpha beta gamma")});
  ds.AddRecord(s, {Value("alpha beta gamma")});
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of[0], result->entity_of[1]);
}

TEST(RobustnessTest, ManyIdenticalRecordsCollapseToOneEntity) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"name", "addr"}));
  for (int i = 0; i < 64; ++i) {
    ds.AddRecord(s, {Value("Same Person"), Value("Same Street 1")});
  }
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->super_records.size(), 1u);
  EXPECT_EQ(result->super_records.begin()->second.members().size(), 64u);
  // Deduplication: the super record holds each distinct value once.
  EXPECT_EQ(result->super_records.begin()->second.NumValues(), 2u);
}

TEST(RobustnessTest, AdversarialSharedTokenSoup) {
  // Every record shares half its tokens with every other; HERA must
  // terminate and keep similarity sane (no crash, labels valid).
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a", "b"}));
  const char* common = "common shared token";
  for (int i = 0; i < 30; ++i) {
    ds.AddRecord(s, {Value(std::string(common) + " " + std::to_string(i * 7919)),
                     Value("unique" + std::to_string(i) + " payload")});
  }
  auto result = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of.size(), 30u);
  EXPECT_LT(result->stats.iterations, 100u);
}

// ----------------------------------------------- extreme configurations

TEST(RobustnessTest, XiZeroStillTerminates) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a"}));
  for (const char* v : {"aa", "bb", "cc"}) ds.AddRecord(s, {Value(v)});
  HeraOptions opts;
  opts.xi = 0.0;
  opts.delta = 0.9;
  opts.use_prefix_filter_join = false;  // xi = 0: the oracle join.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
}

TEST(RobustnessTest, XiOneMatchesOnlyIdenticalValues) {
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a", "b"}));
  ds.AddRecord(s, {Value("exact"), Value("match")});
  ds.AddRecord(s, {Value("exact"), Value("match")});
  ds.AddRecord(s, {Value("exakt"), Value("match")});
  HeraOptions opts;
  opts.xi = 1.0;
  opts.delta = 0.6;
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entity_of[0], result->entity_of[1]);
}

TEST(RobustnessTest, ScaledNumericMetricInRegistry) {
  auto m = MakeSimilarity("numeric_tol5");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Name(), "numeric_tol5");
  EXPECT_DOUBLE_EQ(m->Compute(Value(1970.0), Value(1970.0)), 1.0);
  EXPECT_DOUBLE_EQ(m->Compute(Value(1970.0), Value(1975.0)), 0.0);
  EXPECT_NEAR(m->Compute(Value(1970.0), Value(1972.0)), 0.6, 1e-12);
  EXPECT_EQ(MakeSimilarity("numeric_tol0"), nullptr);
  EXPECT_EQ(MakeSimilarity("numeric_tol-3"), nullptr);
}

TEST(RobustnessTest, HybridWithCustomNumericMetric) {
  auto m = MakeSimilarity("hybrid(jaccard_q2,numeric_tol10)");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Name(), "hybrid(jaccard_q2,numeric_tol10)");
  // Relative-difference would give 1973 vs 2023 sim ~0.975; the
  // tolerance metric correctly scores 0.
  EXPECT_DOUBLE_EQ(m->Compute(Value(1973.0), Value(2023.0)), 0.0);
  EXPECT_NEAR(m->Compute(Value(1973.0), Value(1975.0)), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(m->Compute(Value("abc"), Value("abc")), 1.0);
}

TEST(RobustnessTest, JoinExactWithToleranceMetric) {
  // The numeric sweep window must stay exact for the absolute
  // tolerance metric (a relative window would miss small values).
  auto metric = MakeSimilarity("hybrid(jaccard_q2,numeric_tol5)");
  std::vector<LabeledValue> values;
  Rng rng(61);
  for (uint32_t i = 0; i < 60; ++i) {
    values.push_back({ValueLabel{i, 0, 0},
                      Value(static_cast<double>(rng.UniformInt(-10, 10)))});
  }
  for (double xi : {0.3, 0.5, 0.8, 1.0}) {
    auto fast = PrefixFilterJoin().Join(values, *metric, xi);
    auto slow = NestedLoopJoin().Join(values, *metric, xi);
    EXPECT_EQ(fast.size(), slow.size()) << "xi=" << xi;
  }
  // And the probe/base form.
  std::vector<LabeledValue> probe(values.begin(), values.begin() + 20);
  std::vector<LabeledValue> base(values.begin() + 20, values.end());
  for (double xi : {0.3, 0.8}) {
    auto fast = PrefixFilterJoin().JoinAB(probe, base, *metric, xi);
    auto slow = NestedLoopJoin().JoinAB(probe, base, *metric, xi);
    EXPECT_EQ(fast.size(), slow.size()) << "AB xi=" << xi;
  }
}

// ------------------------------------------------- randomized invariants

TEST(RobustnessTest, RandomDatasetsInvariants) {
  Rng rng(97);
  const char* kWords[] = {"red", "blue", "green", "null", "void", "zero",
                          "one", "data"};
  for (int trial = 0; trial < 15; ++trial) {
    Dataset ds;
    size_t num_schemas = 1 + rng.Uniform(3);
    std::vector<uint32_t> sids;
    for (size_t s = 0; s < num_schemas; ++s) {
      size_t arity = 1 + rng.Uniform(4);
      std::vector<std::string> attrs;
      for (size_t a = 0; a < arity; ++a) {
        attrs.push_back("attr" + std::to_string(s) + "_" + std::to_string(a));
      }
      sids.push_back(ds.schemas().Register(Schema("S" + std::to_string(s), attrs)));
    }
    size_t n = 5 + rng.Uniform(30);
    for (size_t r = 0; r < n; ++r) {
      uint32_t sid = sids[rng.Uniform(sids.size())];
      std::vector<Value> values;
      for (size_t a = 0; a < ds.schemas().Get(sid).size(); ++a) {
        switch (rng.Uniform(4)) {
          case 0:
            values.emplace_back();  // Null.
            break;
          case 1:
            values.emplace_back(static_cast<double>(rng.Uniform(100)));
            break;
          default: {
            std::string v = kWords[rng.Uniform(8)];
            if (rng.Bernoulli(0.5)) v += " " + std::string(kWords[rng.Uniform(8)]);
            values.emplace_back(v);
          }
        }
      }
      ds.AddRecord(sid, std::move(values));
    }
    HeraOptions opts;
    opts.xi = 0.3 + 0.6 * rng.UniformDouble();
    opts.delta = 0.3 + 0.6 * rng.UniformDouble();
    auto result = Hera(opts).Run(ds);
    ASSERT_TRUE(result.ok()) << "trial " << trial;

    // Invariant 1: labels form a partition consistent with super records.
    std::map<uint32_t, std::set<uint32_t>> clusters;
    for (uint32_t r = 0; r < n; ++r) clusters[result->entity_of[r]].insert(r);
    size_t member_total = 0;
    for (const auto& [rid, sr] : result->super_records) {
      EXPECT_TRUE(clusters.count(rid)) << "trial " << trial;
      EXPECT_EQ(clusters[rid].size(), sr.members().size()) << "trial " << trial;
      member_total += sr.members().size();
    }
    EXPECT_EQ(member_total, n) << "trial " << trial;
    // Invariant 2: merge count == records - clusters.
    EXPECT_EQ(result->stats.merges, n - result->super_records.size())
        << "trial " << trial;
  }
}

// -------------------------------------------------- option validation

TEST(GovernanceTest, InvalidOptionsRejectedUpFront) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto expect_invalid = [&](HeraOptions opts, const char* what) {
    auto r = Hera(opts).Run(ds);
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
    auto inc = IncrementalHera::Create(opts, ds.schemas());
    ASSERT_FALSE(inc.ok()) << what;
    EXPECT_EQ(inc.status().code(), StatusCode::kInvalidArgument) << what;
  };
  HeraOptions bad;
  bad.xi = -0.1;
  expect_invalid(bad, "xi < 0");
  bad = HeraOptions{};
  bad.xi = 1.5;
  expect_invalid(bad, "xi > 1");
  bad = HeraOptions{};
  bad.delta = 2.0;
  expect_invalid(bad, "delta > 1");
  bad = HeraOptions{};
  bad.vote_prior_p = 0.4;  // Must exceed 0.5 to carry any signal.
  expect_invalid(bad, "vote_prior_p <= 0.5");
  bad = HeraOptions{};
  bad.vote_prior_p = 1.5;
  expect_invalid(bad, "vote_prior_p > 1");
  bad = HeraOptions{};
  bad.vote_rho = 0.0;
  expect_invalid(bad, "vote_rho == 0");
  bad = HeraOptions{};
  bad.max_iterations = 0;
  expect_invalid(bad, "max_iterations == 0");
  bad = HeraOptions{};
  bad.metric = "no_such_metric";
  expect_invalid(bad, "unknown metric");
}

// ------------------------------------------- deadlines and cancellation

// Asserts entity_of / super_records describe one consistent partition.
void ExpectValidLabeling(const HeraResult& result, size_t n) {
  ASSERT_EQ(result.entity_of.size(), n);
  std::map<uint32_t, std::set<uint32_t>> clusters;
  for (uint32_t r = 0; r < n; ++r) {
    EXPECT_EQ(result.entity_of[result.entity_of[r]], result.entity_of[r]);
    clusters[result.entity_of[r]].insert(r);
  }
  ASSERT_EQ(clusters.size(), result.super_records.size());
  size_t members = 0;
  for (const auto& [rid, sr] : result.super_records) {
    ASSERT_TRUE(clusters.count(rid)) << "super record " << rid;
    EXPECT_EQ(clusters[rid].size(), sr.members().size());
    members += sr.members().size();
  }
  EXPECT_EQ(members, n);
}

Dataset MakePublications() {
  PublicationGeneratorConfig cfg;
  cfg.num_records = 120;
  cfg.num_entities = 30;
  cfg.seed = 7;
  return GeneratePublicationDataset(cfg);
}

TEST(GovernanceTest, ZeroDeadlineReturnsValidPartialLabeling) {
  Dataset ds = MakePublications();
  HeraOptions opts;
  opts.guard.WithTimeoutMs(0.0);  // Expired the moment the run arms it.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.outcome, RunOutcome::kTruncatedDeadline);
  ExpectValidLabeling(*result, ds.size());
}

TEST(GovernanceTest, PreCancelledTokenTruncates) {
  Dataset ds = testing_util::MakeCustomersDataset();
  CancellationToken token = CancellationToken::Make();
  token.RequestCancel();
  HeraOptions opts;
  opts.guard.WithCancellation(token);
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.outcome, RunOutcome::kTruncatedCancelled);
  ExpectValidLabeling(*result, ds.size());
}

TEST(GovernanceTest, GenerousGuardMatchesUnguardedRun) {
  // A guard whose limits cannot bind must not change the result.
  Dataset ds = testing_util::MakeCustomersDataset();
  auto plain = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(plain.ok());
  HeraOptions opts;
  opts.guard.WithTimeoutMs(1e9)
      .WithCancellation(CancellationToken::Make())
      .WithMaxIndexPairs(1u << 30)
      .WithMaxPostingList(1u << 30)
      .WithMaxCandidatesPerIteration(1u << 30);
  auto guarded = Hera(opts).Run(ds);
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded->stats.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(guarded->entity_of, plain->entity_of);
  EXPECT_EQ(guarded->stats.merges, plain->stats.merges);
  EXPECT_EQ(guarded->stats.index_size, plain->stats.index_size);
}

// ------------------------------------------------------ resource ceilings

TEST(GovernanceTest, IndexPairCeilingDegradesGracefully) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.guard.WithMaxIndexPairs(5);
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.outcome, RunOutcome::kDegraded);
  EXPECT_GT(result->stats.shed_index_pairs, 0u);
  EXPECT_LE(result->stats.index_size, 5u);
  ExpectValidLabeling(*result, ds.size());
}

TEST(GovernanceTest, PostingListCeilingDegradesGracefully) {
  // Many records sharing one hot token blow up the per-token posting
  // lists; the ceiling sheds them instead of going quadratic.
  Dataset ds;
  uint32_t s = ds.schemas().Register(Schema("S", {"a"}));
  for (int i = 0; i < 40; ++i) {
    ds.AddRecord(s, {Value("hot common token " + std::to_string(i))});
  }
  HeraOptions opts;
  opts.guard.WithMaxPostingList(4);
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.outcome, RunOutcome::kDegraded);
  EXPECT_GT(result->stats.shed_posting_entries, 0u);
  ExpectValidLabeling(*result, ds.size());
}

TEST(GovernanceTest, CandidateCapDefersWithoutLosingMerges) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto plain = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(plain.ok());
  HeraOptions opts;
  opts.guard.WithMaxCandidatesPerIteration(1);
  auto capped = Hera(opts).Run(ds);
  ASSERT_TRUE(capped.ok()) << capped.status();
  // Deferral, not loss: the capped run reaches the same fixpoint.
  EXPECT_EQ(capped->stats.outcome, RunOutcome::kCompleted);
  EXPECT_GT(capped->stats.deferred_candidate_groups, 0u);
  EXPECT_GT(capped->stats.iterations, plain->stats.iterations);
  EXPECT_TRUE(testing_util::SamePartition(capped->entity_of, plain->entity_of));
}

TEST(GovernanceTest, IterationCapSurfacedInOutcome) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.max_iterations = 1;  // Fixpoint confirmation needs >= 2 passes.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.outcome, RunOutcome::kIterationCap);
  ExpectValidLabeling(*result, ds.size());
}

TEST(GovernanceTest, RunOutcomeNamesAreStable) {
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kCompleted), "completed");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kDegraded), "degraded");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kIterationCap), "iteration_cap");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kTruncatedBudget),
               "truncated_budget");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kTruncatedDeadline),
               "truncated_deadline");
  EXPECT_STREQ(RunOutcomeToString(RunOutcome::kTruncatedCancelled),
               "truncated_cancelled");
}

// ------------------------------------------------- progressive execution

// The publication corpora resolve almost entirely through the bound
// shortcuts (a handful of KM verifications end to end), so they cannot
// make a verification budget bind. The ambiguity corpus is built for
// exactly that: every merge costs a verification and decoys add
// verification-shaped work that never pays off.
Dataset MakeAmbiguous(size_t decoys = 20) {
  AmbiguityGeneratorConfig cfg;
  cfg.num_entities = 30;
  cfg.num_decoys = decoys;
  cfg.seed = 7;
  return GenerateAmbiguousDataset(cfg);
}

// Ungoverned progressive is a no-op by construction: the frontier only
// engages when a budget, deadline, or token could cut the run, so with
// none of those the pass order stays canonical and labels AND the merge
// sequence are byte-identical to the default — at every thread count.
TEST(ProgressiveTest, UngovernedRunIsByteIdenticalToDefault) {
  Dataset ds = MakePublications();
  for (size_t threads : {size_t{0}, size_t{4}, size_t{8}}) {
    HeraOptions base;
    base.num_threads = threads;
    auto plain = Hera(base).Run(ds);
    ASSERT_TRUE(plain.ok()) << plain.status();

    HeraOptions popts = base;
    popts.progressive = true;
    auto prog = Hera(popts).Run(ds);
    ASSERT_TRUE(prog.ok()) << prog.status();
    EXPECT_EQ(prog->stats.outcome, RunOutcome::kCompleted);
    EXPECT_EQ(prog->entity_of, plain->entity_of) << "threads=" << threads;
    EXPECT_EQ(prog->stats.merge_sequence, plain->stats.merge_sequence)
        << "threads=" << threads;
  }
}

TEST(ProgressiveTest, VerificationBudgetTruncatesWithValidLabels) {
  Dataset ds = MakeAmbiguous();
  auto plain = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(plain.ok());
  ASSERT_GT(plain->stats.candidates, 5u) << "dataset needs no verification";

  HeraOptions opts;
  opts.progressive = true;
  opts.guard.WithMaxVerifications(5);
  auto cut = Hera(opts).Run(ds);
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_EQ(cut->stats.outcome, RunOutcome::kTruncatedBudget);
  // The budget is spent exactly, never overshot.
  EXPECT_EQ(cut->stats.candidates, 5u);
  EXPECT_GT(cut->stats.frontier_groups, 0u);
  EXPECT_GT(cut->stats.budget_deferred_groups, 0u);
  ExpectValidLabeling(*cut, ds.size());
}

// Blind shedding (the non-progressive baseline of the bench): the same
// budget under canonical order also stops exactly at the budget with a
// valid partial labeling — only the *choice* of shed work differs.
TEST(ProgressiveTest, BlindShedBudgetAlsoTruncatesExactly) {
  Dataset ds = MakeAmbiguous();
  HeraOptions opts;
  opts.guard.WithMaxVerifications(5);
  auto cut = Hera(opts).Run(ds);
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_EQ(cut->stats.outcome, RunOutcome::kTruncatedBudget);
  EXPECT_EQ(cut->stats.candidates, 5u);
  EXPECT_GT(cut->stats.budget_deferred_groups, 0u);
  // No frontier ordering happened in the blind baseline.
  EXPECT_EQ(cut->stats.frontier_groups, 0u);
  ExpectValidLabeling(*cut, ds.size());
}

// The point of the frontier: at the same partial budget, spending it
// best-first (high upper bounds before decoys) recovers strictly more
// of the ground truth than spending it in canonical order, because the
// decoys sit at low record ids where a blind budget burns first.
TEST(ProgressiveTest, BestFirstBeatsBlindShedAtHalfBudget) {
  Dataset ds = MakeAmbiguous(/*decoys=*/30);
  HeraOptions gauge;
  gauge.progressive = true;
  gauge.guard.WithMaxVerifications(1u << 30);
  auto full = Hera(gauge).Run(ds);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->stats.outcome, RunOutcome::kCompleted);
  const size_t budget = full->stats.candidates / 2;
  ASSERT_GT(budget, 0u);

  double recall[2];
  for (bool progressive : {false, true}) {
    HeraOptions opts;
    opts.progressive = progressive;
    opts.guard.WithMaxVerifications(budget);
    auto cut = Hera(opts).Run(ds);
    ASSERT_TRUE(cut.ok()) << cut.status();
    EXPECT_EQ(cut->stats.outcome, RunOutcome::kTruncatedBudget);
    EXPECT_EQ(cut->stats.candidates, budget);
    recall[progressive] = EvaluatePairs(cut->entity_of, ds.entity_of()).recall;
  }
  EXPECT_GT(recall[1], recall[0])
      << "best-first recall=" << recall[1] << " blind recall=" << recall[0];
}

// A budget generous enough never to bind must not change the fixpoint:
// the frontier reorders verification, but deferral-confluence carries
// the run to the same partition (and labels are canonical min-rids).
TEST(ProgressiveTest, NonBindingBudgetReachesDefaultFixpoint) {
  Dataset ds = MakeAmbiguous();
  auto plain = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(plain.ok());
  HeraOptions opts;
  opts.progressive = true;
  opts.guard.WithMaxVerifications(1u << 30);
  auto prog = Hera(opts).Run(ds);
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_EQ(prog->stats.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(prog->stats.budget_deferred_groups, 0u);
  EXPECT_EQ(prog->entity_of, plain->entity_of);
}

TEST(ProgressiveTest, BudgetObserverFiresExactlyOnceWithReason) {
  Dataset ds = MakeAmbiguous();
  int fired = 0;
  std::string reason;
  HeraOptions opts;
  opts.progressive = true;
  opts.guard.WithMaxVerifications(3).WithBudgetObserver(
      [&](const char* r) {
        ++fired;
        reason = r;
      });
  auto cut = Hera(opts).Run(ds);
  ASSERT_TRUE(cut.ok()) << cut.status();
  ASSERT_EQ(cut->stats.outcome, RunOutcome::kTruncatedBudget);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reason, "budget");
}

// A cancellation mid-run under progressive drains through the same
// orderly frontier path: the observer reports "cancelled" and the
// partial labeling stays valid.
TEST(ProgressiveTest, CancellationDrainsFrontierWithObserver) {
  Dataset ds = MakePublications();
  CancellationToken token = CancellationToken::Make();
  token.RequestCancel();
  int fired = 0;
  std::string reason;
  HeraOptions opts;
  opts.progressive = true;
  opts.guard.WithCancellation(token).WithBudgetObserver([&](const char* r) {
    ++fired;
    reason = r;
  });
  auto cut = Hera(opts).Run(ds);
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_EQ(cut->stats.outcome, RunOutcome::kTruncatedCancelled);
  ExpectValidLabeling(*cut, ds.size());
  if (fired > 0) {  // Fires only if a pass reached its verify stage.
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(reason, "cancelled");
  }
}

#ifndef HERA_DISABLE_OBS

TEST(ProgressiveTest, FrontierCountersSurfaceInReport) {
  Dataset ds = MakeAmbiguous();
  HeraOptions opts;
  opts.progressive = true;
  opts.collect_report = true;
  opts.guard.WithMaxVerifications(5);
  auto cut = Hera(opts).Run(ds);
  ASSERT_TRUE(cut.ok()) << cut.status();
  ASSERT_TRUE(cut->report.collected);
  const auto& counters = cut->report.counters;
  ASSERT_TRUE(counters.count("quality.frontier_groups"));
  ASSERT_TRUE(counters.count("quality.frontier_verified"));
  ASSERT_TRUE(counters.count("quality.frontier_deferred"));
  EXPECT_EQ(counters.at("quality.frontier_groups"),
            cut->stats.frontier_groups);
  EXPECT_EQ(counters.at("quality.frontier_verified"), cut->stats.candidates);
  EXPECT_EQ(counters.at("quality.frontier_deferred"),
            cut->stats.budget_deferred_groups);
}

#endif  // HERA_DISABLE_OBS

// --------------------------------------------------------- fault injection

// These need the HERA_FAILPOINT sites compiled in (HERA_FAILPOINTS=ON,
// the default); with -DHERA_FAILPOINTS=OFF nothing can trip.
#ifndef HERA_DISABLE_FAILPOINTS

TEST(GovernanceTest, FailpointSweepEverySiteSurfacesCleanError) {
  Dataset ds = MakePublications();
  std::string path = std::string(::testing::TempDir()) + "/failpoint_sweep.hera";
  ASSERT_TRUE(WriteDataset(ds, path).ok());

  // Unfaulted control run; candidates > 0 proves the KM verification
  // branch (and with it the verify.km site) is on this dataset's path.
  failpoint::DisarmAll();
  {
    auto loaded = ReadDataset(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    auto r = Hera(HeraOptions{}).Run(*loaded);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_GT(r->stats.candidates, 0u);
    ASSERT_GT(r->stats.merges, 0u);
  }

  for (const std::string& site : failpoint::KnownSites()) {
    SCOPED_TRACE(site);
    failpoint::DisarmAll();
    // Checkpointing is on for every site so the persist.* sites are on
    // the run's path; each site gets a fresh directory.
    HeraOptions opts;
    opts.checkpoint_dir =
        std::string(::testing::TempDir()) + "/sweep_ck_" + site;
    opts.checkpoint_every = 1;
    std::filesystem::remove_all(opts.checkpoint_dir);
    if (site == "persist.recover") {
      // The recover site only runs on Resume; seed the directory with a
      // clean checkpointed run first.
      auto seeded = ReadDataset(path);
      ASSERT_TRUE(seeded.ok()) << seeded.status();
      ASSERT_TRUE(Hera(opts).Run(*seeded).ok());
    }
    failpoint::Arm(site, Status::Internal("injected at " + site), /*skip=*/0,
                   /*trips=*/-1);
    bool failed = false;
    auto loaded = ReadDataset(path);
    if (!loaded.ok()) {
      failed = true;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
    } else {
      auto r = site == "persist.recover" ? Hera(opts).Resume(*loaded)
                                         : Hera(opts).Run(*loaded);
      failed = !r.ok();
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kInternal);
        EXPECT_NE(r.status().message().find(site), std::string::npos)
            << r.status();
      }
    }
    EXPECT_TRUE(failed) << "site never tripped";
    EXPECT_GE(failpoint::HitCount(site), 1u);
    failpoint::DisarmAll();
    std::filesystem::remove_all(opts.checkpoint_dir);
  }

  failpoint::DisarmAll();
  auto loaded = ReadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(Hera(HeraOptions{}).Run(*loaded).ok());
  std::remove(path.c_str());
}

TEST(GovernanceTest, SkipAndTripsControlWhichHitFails) {
  Dataset ds = testing_util::MakeCustomersDataset();
  // The 4 merges of the motivating example: fail only the 3rd.
  failpoint::Arm("engine.merge", Status::Internal("third merge"), /*skip=*/2,
                 /*trips=*/1);
  auto r1 = Hera(HeraOptions{}).Run(ds);
  EXPECT_FALSE(r1.ok());
  // The trip budget is spent; the same armed site now passes.
  auto r2 = Hera(HeraOptions{}).Run(ds);
  EXPECT_TRUE(r2.ok()) << r2.status();
  failpoint::DisarmAll();
}

TEST(GovernanceTest, IncrementalResumesAfterInjectedFailure) {
  Dataset ds = testing_util::MakeCustomersDataset();
  auto batch = Hera(HeraOptions{}).Run(ds);
  ASSERT_TRUE(batch.ok());

  auto inc_or = IncrementalHera::Create(HeraOptions{}, ds.schemas());
  ASSERT_TRUE(inc_or.ok());
  IncrementalHera& inc = **inc_or;
  for (const Record& r : ds.records()) {
    ASSERT_TRUE(inc.AddRecord(r.schema_id(), r.values()).ok());
  }
  failpoint::Arm("engine.merge", Status::Internal("mid-resolve crash"));
  auto failed = inc.Resolve();
  ASSERT_FALSE(failed.ok());
  failpoint::DisarmAll();

  // The engine survived consistent; a later Resolve picks the work up
  // with nothing new pending and reaches the batch fixpoint.
  auto resumed = inc.Resolve();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(testing_util::SamePartition(inc.Labels(), batch->entity_of));
}

#endif  // HERA_DISABLE_FAILPOINTS

}  // namespace
}  // namespace hera
