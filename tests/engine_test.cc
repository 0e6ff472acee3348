// Direct tests for ResolutionEngine: record growth across rounds,
// precomputed indexing, label stability.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/hera.h"
#include "data/ambiguity_generator.h"
#include "data/movie_generator.h"
#include "sim/metrics.h"
#include "testing_util.h"

namespace hera {
namespace {

ValueSimilarityPtr Metric() { return MakeSimilarity("jaccard_q2"); }

TEST(EngineTest, EmptyEngineYieldsNoLabels) {
  ResolutionEngine engine(HeraOptions{}, Metric());
  EXPECT_EQ(engine.NumRecords(), 0u);
  EXPECT_TRUE(engine.Labels().empty());
  engine.IterateToFixpoint();  // No-op on empty state.
  EXPECT_EQ(engine.stats().merges, 0u);
}

TEST(EngineTest, AddRecordsPreservesEarlierMerges) {
  Dataset ds = testing_util::MakeCustomersDataset();
  ResolutionEngine engine(HeraOptions{}, Metric());
  // Round 1: r1 (0) and r6 (5) only — renumber as 0 and 1.
  std::vector<Record> first = {
      Record(0, ds.record(0).schema_id(), ds.record(0).values()),
      Record(1, ds.record(5).schema_id(), ds.record(5).values()),
  };
  engine.AddRecords(first);
  engine.IndexNewRecords();
  engine.IterateToFixpoint();
  auto labels = engine.Labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0], labels[1]);  // Near-identical records merged.

  // Round 2: an unrelated record must not disturb the merge.
  std::vector<Record> second = {
      Record(2, ds.record(2).schema_id(), ds.record(2).values()),  // r3.
  };
  engine.AddRecords(second);
  engine.IndexNewRecords();
  engine.IterateToFixpoint();
  labels = engine.Labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[2], labels[0]);
}

TEST(EngineTest, IndexPrecomputedMatchesIndexNewRecords) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;

  ResolutionEngine joined(opts, Metric());
  joined.AddRecords(ds.records());
  joined.IndexNewRecords();
  joined.IterateToFixpoint();

  auto pairs = ComputeSimilarValuePairs(ds, opts);
  ASSERT_TRUE(pairs.ok());
  ResolutionEngine seeded(opts, Metric());
  seeded.AddRecords(ds.records());
  seeded.IndexPrecomputed(*pairs);
  seeded.IterateToFixpoint();

  EXPECT_EQ(joined.Labels(), seeded.Labels());
  EXPECT_EQ(joined.stats().index_size, seeded.stats().index_size);
}

TEST(EngineTest, IndexNewRecordsReturnsPairCount) {
  Dataset ds = testing_util::MakeCustomersDataset();
  ResolutionEngine engine(HeraOptions{}, Metric());
  engine.AddRecords(ds.records());
  auto added = engine.IndexNewRecords();
  ASSERT_TRUE(added.ok());
  EXPECT_GT(*added, 0u);
  EXPECT_EQ(*added, engine.stats().index_size);
  // Nothing new: zero additional pairs.
  EXPECT_EQ(*engine.IndexNewRecords(), 0u);
}

TEST(EngineTest, PredictorAccessibleAfterRun) {
  Dataset ds = testing_util::MakeCustomersDataset();
  ResolutionEngine engine(HeraOptions{}, Metric());
  engine.AddRecords(ds.records());
  engine.IndexNewRecords();
  engine.IterateToFixpoint();
  // Predictions were recorded (the decided count may be 0 at this
  // scale, but votes must exist once merges happened).
  EXPECT_GT(engine.predictor().num_predictions(), 0u);
}

TEST(EngineTest, TakeSuperRecordsTransfersOwnership) {
  Dataset ds = testing_util::MakeCustomersDataset();
  ResolutionEngine engine(HeraOptions{}, Metric());
  engine.AddRecords(ds.records());
  engine.IndexNewRecords();
  engine.IterateToFixpoint();
  auto supers = engine.TakeSuperRecords();
  EXPECT_EQ(supers.size(), 2u);
  EXPECT_TRUE(engine.active().empty());
}

/// The loop counters a change to the group visit must not move.
struct LoopCounts {
  size_t pruned_by_bound = 0;
  size_t direct_merges = 0;
  size_t comparisons = 0;
  uint64_t probes = 0;
  uint64_t merge_sequence_fp = 0;

  bool operator==(const LoopCounts&) const = default;
};

std::string ToString(const LoopCounts& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{%zu, %zu, %zu, %llu, 0x%016llxull}",
                c.pruned_by_bound, c.direct_merges, c.comparisons,
                static_cast<unsigned long long>(c.probes),
                static_cast<unsigned long long>(c.merge_sequence_fp));
  return buf;
}

LoopCounts CountsOf(const HeraResult& r) {
  LoopCounts c;
  c.pruned_by_bound = r.stats.pruned_by_bound;
  c.direct_merges = r.stats.direct_merges;
  c.comparisons = r.stats.comparisons;
  c.probes = r.report.counters.at("index.probes");
  uint64_t h = 1469598103934665603ULL;
  for (const auto& [i, j] : r.stats.merge_sequence) {
    for (uint32_t v : {i, j}) {
      h ^= v;
      h *= 1099511628211ULL;
    }
  }
  c.merge_sequence_fp = h;
  return c;
}

struct CounterCase {
  const char* name;
  Dataset dataset;
  const char* metric;
  /// Unbudgeted run, at every thread count.
  LoopCounts full;
  /// Progressive run cut by a verification budget.
  LoopCounts cut;
  /// The cut run resumed with the budget lifted.
  LoopCounts resumed;
  /// A run whose passes examine at most kCap groups each, carrying the
  /// rest as deferrals into the next pass.
  LoopCounts capped;
};

Dataset SmallMovies(size_t records, size_t entities) {
  MovieGeneratorConfig config;
  config.num_records = records;
  config.num_entities = entities;
  config.seed = 7;
  return GenerateMovieDataset(config);
}

Dataset SmallAmbiguous() {
  AmbiguityGeneratorConfig config;
  config.num_entities = 100;
  config.num_decoys = 100;
  config.seed = 7;
  return GenerateAmbiguousDataset(config);
}

// The three perfbench corpora at their small scale, seed 7. The pins
// were taken before the fixpoint loop's group visit stopped
// allocating; the counts, the probes and the merge order are the
// contract that rewrite keeps.
TEST(EngineCountersTest, GroupVisitCountersArePinned) {
  const CounterCase cases[] = {
      {"movies-merge", SmallMovies(200, 15), "jaccard_q2",
       {726, 139, 57, 922, 0xd67c505344aa8403ull},
       {671, 146, 10, 4943, 0x1ac03791da838b60ull},
       {837, 161, 21, 5135, 0x346d3c5beabb323cull},
       {3094, 137, 50, 3281, 0xad505aa5d4495133ull}},
      {"ambiguous-join", SmallAmbiguous(), "jaccard_q2",
       {4950, 5, 295, 5250, 0x78e42a943bb5e5cfull},
       {5043, 7, 10, 10676, 0x67ad3eb1561bb6d3ull},
       {5043, 7, 293, 10959, 0x3fa4c674e857c7a5ull},
       {4950, 5, 295, 5250, 0x5088baf56650fb73ull}},
      {"movies-edit", SmallMovies(140, 20), "edit",
       {1862, 95, 31, 1988, 0xc569a6577d50fb85ull},
       {1624, 84, 10, 8426, 0x2188e9a8ba2279ddull},
       {2303, 102, 18, 9131, 0xdf567991a531e2dbull},
       {7819, 94, 31, 7944, 0xc2397dddf21467c1ull}},
  };
  constexpr size_t kBudget = 10;
  constexpr size_t kCap = 40;
  for (const CounterCase& c : cases) {
    for (size_t threads : {1u, 4u}) {
      const std::string where =
          std::string(c.name) + " threads=" + std::to_string(threads);
      HeraOptions opts;
      opts.xi = 0.5;
      opts.delta = 0.5;
      opts.metric = c.metric;
      opts.num_threads = threads;
      opts.collect_report = true;
      auto full = Hera(opts).Run(c.dataset);
      ASSERT_TRUE(full.ok()) << where << full.status();
      EXPECT_EQ(CountsOf(*full), c.full)
          << where << " full " << ToString(CountsOf(*full));

      HeraOptions cut_opts = opts;
      cut_opts.progressive = true;
      cut_opts.checkpoint_dir = std::string(::testing::TempDir()) +
                                "/engine_counters_" + c.name + "_" +
                                std::to_string(threads);
      std::filesystem::remove_all(cut_opts.checkpoint_dir);
      cut_opts.checkpoint_every = 1;
      cut_opts.guard.WithMaxVerifications(kBudget);
      auto cut = Hera(cut_opts).Run(c.dataset);
      ASSERT_TRUE(cut.ok()) << where << cut.status();
      ASSERT_EQ(cut->stats.outcome, RunOutcome::kTruncatedBudget) << where;
      EXPECT_EQ(CountsOf(*cut), c.cut)
          << where << " cut " << ToString(CountsOf(*cut));

      HeraOptions resume_opts = cut_opts;
      resume_opts.guard = RunGuard();
      auto resumed = Hera(resume_opts).Resume(c.dataset);
      ASSERT_TRUE(resumed.ok()) << where << resumed.status();
      // The cut reorders the verifications of its pass, and on the
      // movies corpora the resumed labels differ from the full run's;
      // the pin holds the resumed run to its own merge order.
      EXPECT_EQ(resumed->stats.outcome, RunOutcome::kCompleted) << where;
      EXPECT_EQ(CountsOf(*resumed), c.resumed)
          << where << " resumed " << ToString(CountsOf(*resumed));
      std::filesystem::remove_all(cut_opts.checkpoint_dir);

      HeraOptions capped_opts = opts;
      capped_opts.guard.WithMaxCandidatesPerIteration(kCap);
      auto capped = Hera(capped_opts).Run(c.dataset);
      ASSERT_TRUE(capped.ok()) << where << capped.status();
      EXPECT_GT(capped->stats.deferred_candidate_groups, 0u) << where;
      EXPECT_EQ(CountsOf(*capped), c.capped)
          << where << " capped " << ToString(CountsOf(*capped));
    }
  }
}

}  // namespace
}  // namespace hera
