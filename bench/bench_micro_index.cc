// Micro-benchmarks for the index subsystem (google-benchmark):
//   - prefix-filter similarity join vs nested loop (the paper claims
//     index-assisted similarity computation beats nest-loop by ~3
//     orders of magnitude),
//   - index construction (Proposition 1),
//   - candidate-range lookup (Algorithm 1's binary searches),
//   - merge maintenance (Proposition 4).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "data/movie_generator.h"
#include "index/bounds.h"
#include "index/value_pair_index.h"
#include "sim/metrics.h"
#include "simjoin/similarity_join.h"

namespace hera {
namespace {

Dataset MakeDataset(size_t num_records) {
  MovieGeneratorConfig config;
  config.num_records = num_records;
  config.num_entities = std::max<size_t>(1, num_records / 8);
  config.seed = 5;
  return GenerateMovieDataset(config);
}

std::vector<LabeledValue> MakeValues(size_t num_records) {
  Dataset ds = MakeDataset(num_records);
  std::vector<LabeledValue> values;
  for (const Record& r : ds.records()) {
    for (uint32_t i = 0; i < r.size(); ++i) {
      if (r.value(i).is_null()) continue;
      values.push_back({ValueLabel{r.id(), i, 0}, r.value(i)});
    }
  }
  return values;
}

void BM_NestedLoopJoin(benchmark::State& state) {
  auto values = MakeValues(static_cast<size_t>(state.range(0)));
  auto metric = MakeSimilarity("jaccard_q2");
  NestedLoopJoin join;
  for (auto _ : state) {
    auto pairs = join.Join(values, *metric, 0.5);
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_NestedLoopJoin)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_PrefixFilterJoin(benchmark::State& state) {
  auto values = MakeValues(static_cast<size_t>(state.range(0)));
  auto metric = MakeSimilarity("jaccard_q2");
  PrefixFilterJoin join;
  for (auto _ : state) {
    auto pairs = join.Join(values, *metric, 0.5);
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_PrefixFilterJoin)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_IndexBuild(benchmark::State& state) {
  auto values = MakeValues(static_cast<size_t>(state.range(0)));
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = PrefixFilterJoin().Join(values, *metric, 0.5);
  for (auto _ : state) {
    ValuePairIndex index;
    index.Build(pairs);
    benchmark::DoNotOptimize(index);
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_IndexBuild)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_CandidateLookup(benchmark::State& state) {
  auto values = MakeValues(500);
  auto metric = MakeSimilarity("jaccard_q2");
  ValuePairIndex index;
  index.Build(PrefixFilterJoin().Join(values, *metric, 0.5));
  Rng rng(3);
  std::vector<IndexedPair> pairs;
  for (auto _ : state) {
    uint32_t i = static_cast<uint32_t>(rng.Uniform(500));
    uint32_t j = static_cast<uint32_t>(rng.Uniform(500));
    if (i == j) continue;
    index.PairsInto(i, j, &pairs);
    benchmark::DoNotOptimize(pairs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CandidateLookup);

void BM_ComputeBounds(benchmark::State& state) {
  Dataset ds = MakeDataset(500);
  auto values = MakeValues(500);
  auto metric = MakeSimilarity("jaccard_q2");
  ValuePairIndex index;
  index.Build(PrefixFilterJoin().Join(values, *metric, 0.5));
  // Collect non-empty groups once, with their records' field counts.
  struct Group {
    std::vector<IndexedPair> pairs;
    size_t nf_i, nf_j;
  };
  std::vector<Group> groups;
  index.ForEachGroup(
      [&](uint32_t r1, uint32_t r2, const std::vector<IndexedPair>& p) {
        groups.push_back({p, ds.record(r1).size(), ds.record(r2).size()});
      });
  // All three steps on one reused GroupBounds, as the fixpoint loop
  // runs them on a group that reaches a direct merge.
  GroupBounds bounds;
  std::vector<IndexedPair> refined;
  size_t g = 0;
  for (auto _ : state) {
    const Group& group = groups[g++ % groups.size()];
    double upper = bounds.Upper(group.pairs, group.nf_i, group.nf_j, false);
    double lower = bounds.Lower(group.pairs, group.nf_i, group.nf_j);
    bounds.Refine(group.pairs, &refined);
    benchmark::DoNotOptimize(upper);
    benchmark::DoNotOptimize(lower);
    benchmark::DoNotOptimize(refined.data());
    benchmark::ClobberMemory();
  }
  state.counters["groups"] = static_cast<double>(groups.size());
}
BENCHMARK(BM_ComputeBounds);

void BM_IndexMerge(benchmark::State& state) {
  auto values = MakeValues(500);
  auto metric = MakeSimilarity("jaccard_q2");
  auto pairs = PrefixFilterJoin().Join(values, *metric, 0.5);
  for (auto _ : state) {
    state.PauseTiming();
    ValuePairIndex index;
    index.Build(pairs);
    // Merge records 0 and 1 with a synthetic remap covering their
    // labels.
    std::vector<std::pair<ValueLabel, ValueLabel>> remap;
    std::set<ValueLabel> seen;
    for (const auto& p : index.Dump()) {
      for (const ValueLabel& l : {p.a, p.b}) {
        if ((l.rid == 0 || l.rid == 1) && seen.insert(l).second) {
          remap.push_back(
              {l, ValueLabel{0, l.rid == 0 ? l.fid : l.fid + 32, l.vid}});
        }
      }
    }
    state.ResumeTiming();
    index.ApplyMerge(0, 1, 0, remap);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexMerge)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hera

BENCHMARK_MAIN();
