// Golden determinism tests for the parallel execution subsystem
// (src/parallel/) and the per-metric TokenCache: serial and
// multi-threaded runs
// must produce byte-identical pair lists, merge sequences, and final
// clusters — including under an active failpoint. Plus unit tests for
// ThreadPool / ParallelChunks themselves. See docs/performance.md for
// the guarantee being pinned down here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.h"
#include "core/hera.h"
#include "core/incremental.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "sim/metrics.h"
#include "text/qgram.h"
#include "text/token_cache.h"

namespace hera {
namespace {

// ---------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsJobOncePerWorker) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&](size_t worker) { hits[worker].fetch_add(1); });
  for (size_t w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1) << w;
}

TEST(ThreadPoolTest, ReusableAcrossManyRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run([&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPoolTest, SingleWorkerPool) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.Run([&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 1);
}

// ------------------------------------------------------ ParallelChunks

TEST(ParallelChunksTest, CoversRangeExactlyOnceSerial) {
  std::vector<int> touched(100, 0);
  std::vector<size_t> chunk_order;
  ParallelRunStats stats =
      ParallelChunks(nullptr, 100, 7,
                     [&](size_t chunk, size_t begin, size_t end, size_t worker) {
                       EXPECT_EQ(worker, 0u);
                       chunk_order.push_back(chunk);
                       for (size_t i = begin; i < end; ++i) ++touched[i];
                     });
  for (int t : touched) EXPECT_EQ(t, 1);
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.chunks, 15u);  // ceil(100 / 7)
  // Serial fallback runs chunks inline in ascending order.
  for (size_t c = 0; c < chunk_order.size(); ++c) EXPECT_EQ(chunk_order[c], c);
}

TEST(ParallelChunksTest, CoversRangeExactlyOnceParallel) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  ParallelRunStats stats = ParallelChunks(
      &pool, 1000, 13, [&](size_t, size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
      });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.busy_us.size(), 4u);
}

TEST(ParallelChunksTest, ChunkBoundsAreAFunctionOfNAndGrain) {
  // The determinism guarantee rests on this: chunk c covers
  // [c*grain, min(n, (c+1)*grain)) regardless of worker count.
  ThreadPool pool(3);
  std::vector<std::pair<size_t, size_t>> bounds(8);
  ParallelChunks(&pool, 50, 7, [&](size_t chunk, size_t begin, size_t end,
                                   size_t) { bounds[chunk] = {begin, end}; });
  for (size_t c = 0; c < 8; ++c) {
    EXPECT_EQ(bounds[c].first, c * 7);
    EXPECT_EQ(bounds[c].second, std::min<size_t>(50, (c + 1) * 7));
  }
}

TEST(ParallelChunksTest, EmptyRangeAndDefaultGrain) {
  ParallelRunStats stats =
      ParallelChunks(nullptr, 0, 4, [&](size_t, size_t, size_t, size_t) {
        FAIL() << "no chunks expected for n=0";
      });
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_GE(DefaultGrain(0, 1), 1u);
  EXPECT_GE(DefaultGrain(100, 4), 1u);
  EXPECT_EQ(DefaultGrain(100, 1), 100u);  // Serial: one chunk.
}

// ---------------------------------------------------------- TokenCache

TEST(TokenCacheTest, HitsAndMissesAreCounted) {
  TokenCache cache(2);
  EXPECT_EQ(cache.q(), 2);
  auto a1 = cache.Grams("norman");
  auto a2 = cache.Grams("norman");
  auto b = cache.Grams("street");
  TokenCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 2u);
  // Hits return the published vector, not a copy.
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_NE(a1.get(), b.get());
  // Content matches direct extraction.
  EXPECT_EQ(*a1, QgramSet("norman", 2));
}

TEST(TokenCacheTest, CapacityCeilingSkipsInsertsButStillServes) {
  TokenCache cache(2, /*max_entries=*/1);
  auto a = cache.Grams("alpha");
  auto b = cache.Grams("beta");  // Over capacity: computed, not stored.
  EXPECT_EQ(*b, QgramSet("beta", 2));
  TokenCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.skipped_inserts, 1u);
  // The stored entry still hits.
  cache.Grams("alpha");
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(TokenCacheTest, ConcurrentAccessConverges) {
  TokenCache cache(2);
  ThreadPool pool(4);
  std::vector<TokenCache::GramsPtr> got(4);
  pool.Run([&](size_t w) { got[w] = cache.Grams("concurrent"); });
  for (size_t w = 1; w < 4; ++w) EXPECT_EQ(*got[0], *got[w]);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ------------------------------------------------- Join determinism

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

Dataset MovieData(size_t records = 220, uint64_t seed = 7) {
  MovieGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 5;
  config.seed = seed;
  return GenerateMovieDataset(config);
}

Dataset PublicationData(size_t records = 180, uint64_t seed = 11) {
  PublicationGeneratorConfig config;
  config.num_records = records;
  config.num_entities = records / 4;
  config.seed = seed;
  return GeneratePublicationDataset(config);
}

TEST(ParallelJoinTest, PairListIsByteIdenticalAcrossThreadCounts) {
  for (bool prefix_filter : {true, false}) {
    // The nested-loop oracle is O(n^2); keep its dataset small.
    Dataset ds = prefix_filter ? MovieData() : MovieData(70, 7);
    HeraOptions serial_opts;
    serial_opts.use_prefix_filter_join = prefix_filter;
    serial_opts.num_threads = 0;
    auto serial = ComputeSimilarValuePairs(ds, serial_opts);
    ASSERT_TRUE(serial.ok());
    for (size_t threads : {2u, 4u, 8u}) {
      HeraOptions opts = serial_opts;
      opts.num_threads = threads;
      auto parallel = ComputeSimilarValuePairs(ds, opts);
      ASSERT_TRUE(parallel.ok());
      // Identical content AND identical order.
      EXPECT_EQ(AsTuples(*serial), AsTuples(*parallel))
          << "prefix_filter=" << prefix_filter << " threads=" << threads;
    }
  }
}

TEST(ParallelJoinTest, JoinABIsByteIdenticalAcrossThreadCounts) {
  Dataset ds = MovieData(160, 3);
  std::vector<LabeledValue> base, probe;
  for (const Record& r : ds.records()) {
    SuperRecord sr = SuperRecord::FromRecord(r);
    for (uint32_t f = 0; f < sr.num_fields(); ++f) {
      for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
        LabeledValue lv{ValueLabel{sr.rid(), f, v}, sr.field(f).value(v).value};
        (r.id() % 2 == 0 ? base : probe).push_back(lv);
      }
    }
  }
  auto metric = MakeSimilarity("hybrid(jaccard_q2)");
  ASSERT_NE(metric, nullptr);
  PrefixFilterJoin serial_join;
  std::vector<ValuePair> serial_out;
  ASSERT_TRUE(
      serial_join.JoinAB(probe, base, *metric, 0.5, RunGuard(), &serial_out).ok());
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    PrefixFilterJoin join;
    join.SetExecutor(&pool);
    std::vector<ValuePair> out;
    JoinReport report;
    ASSERT_TRUE(join.JoinAB(probe, base, *metric, 0.5, RunGuard(), &out, &report).ok());
    EXPECT_EQ(AsTuples(serial_out), AsTuples(out)) << "threads=" << threads;
    EXPECT_EQ(report.threads_used, threads);
  }
}

// Two joins on one joiner give identical output: a join keeps no
// tokenization state from one call to the next.
TEST(ParallelJoinTest, TokenCacheDoesNotChangeJoinOutput) {
  Dataset ds = MovieData(120, 5);
  HeraOptions opts;
  auto one_shot = ComputeSimilarValuePairs(ds, opts);
  ASSERT_TRUE(one_shot.ok());
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
  auto metric = MakeSimilarity(opts.metric);
  PrefixFilterJoin join;
  std::vector<ValuePair> first, second;
  ASSERT_TRUE(join.Join(values, *metric, opts.xi, RunGuard(), &first).ok());
  ASSERT_TRUE(join.Join(values, *metric, opts.xi, RunGuard(), &second).ok());
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(AsTuples(*one_shot), AsTuples(first));
  EXPECT_EQ(AsTuples(first), AsTuples(second));
}

// ------------------------------------------------ Engine determinism

struct RunSignature {
  std::vector<uint32_t> labels;
  std::vector<std::pair<uint32_t, uint32_t>> merge_sequence;
  size_t merges, comparisons, candidates, direct_merges, pruned, iterations;
  size_t decided;
};

RunSignature SignatureOf(const HeraResult& result) {
  RunSignature s;
  s.labels = result.entity_of;
  s.merge_sequence = result.stats.merge_sequence;
  s.merges = result.stats.merges;
  s.comparisons = result.stats.comparisons;
  s.candidates = result.stats.candidates;
  s.direct_merges = result.stats.direct_merges;
  s.pruned = result.stats.pruned_by_bound;
  s.iterations = result.stats.iterations;
  s.decided = result.stats.decided_schema_matchings;
  return s;
}

void ExpectSameSignature(const RunSignature& a, const RunSignature& b,
                         const char* what) {
  EXPECT_EQ(a.labels, b.labels) << what;
  EXPECT_EQ(a.merge_sequence, b.merge_sequence) << what;
  EXPECT_EQ(a.merges, b.merges) << what;
  EXPECT_EQ(a.comparisons, b.comparisons) << what;
  EXPECT_EQ(a.candidates, b.candidates) << what;
  EXPECT_EQ(a.direct_merges, b.direct_merges) << what;
  EXPECT_EQ(a.pruned, b.pruned) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.decided, b.decided) << what;
}

TEST(ParallelEngineTest, MovieRunIsDeterministicAcrossThreadCounts) {
  Dataset ds = MovieData();
  HeraOptions opts;
  auto serial = Hera(opts).Run(ds);
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->stats.merges, 0u);
  RunSignature want = SignatureOf(*serial);
  for (size_t threads : {2u, 4u, 8u}) {
    HeraOptions popts;
    popts.num_threads = threads;
    auto parallel = Hera(popts).Run(ds);
    ASSERT_TRUE(parallel.ok());
    ExpectSameSignature(want, SignatureOf(*parallel),
                        threads == 2 ? "movies t=2"
                                     : (threads == 4 ? "movies t=4" : "movies t=8"));
  }
}

TEST(ParallelEngineTest, PublicationRunIsDeterministicAcrossThreadCounts) {
  Dataset ds = PublicationData();
  for (bool tight : {false, true}) {
    HeraOptions opts;
    opts.tight_bounds = tight;
    auto serial = Hera(opts).Run(ds);
    ASSERT_TRUE(serial.ok());
    RunSignature want = SignatureOf(*serial);
    for (size_t threads : {2u, 4u}) {
      HeraOptions popts = opts;
      popts.num_threads = threads;
      auto parallel = Hera(popts).Run(ds);
      ASSERT_TRUE(parallel.ok());
      ExpectSameSignature(want, SignatureOf(*parallel), "publications");
    }
  }
}

// Labels and the merge sequence at every thread count. Threads 0
// repeats the serial run, so it checks that a run is repeatable at all.
// (The name's "Kernels" and "Cache" axes went with the knobs that
// selected them; KernelBitEqualityTest and the join-level metric-path
// oracles in kernel_test.cc cover the kernels.)
TEST(ParallelEngineTest, ResolutionIdenticalAcrossThreadsKernelsAndCache) {
  for (bool movies : {true, false}) {
    Dataset ds = movies ? MovieData(120, 21) : PublicationData(100, 9);
    HeraOptions base;
    auto want = Hera(base).Run(ds);
    ASSERT_TRUE(want.ok());
    ASSERT_GT(want->stats.merges, 0u);
    for (size_t threads : {0u, 4u, 8u}) {
      HeraOptions opts = base;
      opts.num_threads = threads;
      auto got = Hera(opts).Run(ds);
      ASSERT_TRUE(got.ok());
      const std::string what =
          std::string(movies ? "movies" : "publications") +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(want->entity_of, got->entity_of) << what;
      EXPECT_EQ(want->stats.merge_sequence, got->stats.merge_sequence)
          << what;
    }
  }
}

TEST(ParallelEngineTest, IncrementalRoundsAreDeterministic) {
  Dataset ds = MovieData(150, 9);
  auto run_incremental = [&](size_t threads) {
    HeraOptions opts;
    opts.num_threads = threads;
    auto inc = IncrementalHera::Create(opts, ds.schemas());
    EXPECT_TRUE(inc.ok());
    // Three rounds of arrivals.
    size_t n = ds.size();
    std::vector<size_t> cuts = {n / 3, 2 * n / 3, n};
    size_t next = 0;
    for (size_t cut : cuts) {
      for (; next < cut; ++next) {
        const Record& r = ds.record(static_cast<uint32_t>(next));
        EXPECT_TRUE((*inc)->AddRecord(r.schema_id(), r.values()).ok());
      }
      EXPECT_TRUE((*inc)->Resolve().ok());
    }
    return std::make_pair((*inc)->Labels(), (*inc)->stats().merge_sequence);
  };
  auto serial = run_incremental(0);
  for (size_t threads : {2u, 4u, 8u}) {
    auto parallel = run_incremental(threads);
    EXPECT_EQ(serial.first, parallel.first) << "threads=" << threads;
    EXPECT_EQ(serial.second, parallel.second) << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, FailpointFiresIdenticallyUnderParallelRun) {
  Dataset ds = MovieData(120, 21);
  // Serial reference: fail on the 3rd KM verification.
  auto run_with_failpoint = [&](size_t threads) {
    failpoint::Arm("verify.km", Status::Internal("injected"), /*skip=*/2,
                   /*trips=*/1);
    HeraOptions opts;
    opts.num_threads = threads;
    auto result = Hera(opts).Run(ds);
    size_t hits = failpoint::HitCount("verify.km");
    failpoint::DisarmAll();
    return std::make_pair(result.ok() ? Status::OK() : result.status(), hits);
  };
  auto [serial_status, serial_hits] = run_with_failpoint(0);
  ASSERT_FALSE(serial_status.ok());
  for (size_t threads : {2u, 4u}) {
    auto [status, hits] = run_with_failpoint(threads);
    // KM verification runs on the controller thread while the pool
    // serves the join: the injected error fires at the same serial
    // consumption point, after the same number of passing hits.
    EXPECT_EQ(status.ToString(), serial_status.ToString())
        << "threads=" << threads;
    EXPECT_EQ(hits, serial_hits) << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, RecoversAndConvergesAfterInjectedFailure) {
  // After an injected mid-run failure, a re-Resolve must converge to
  // the same fixpoint as an uninterrupted serial run — at any thread
  // count.
  Dataset ds = MovieData(100, 13);
  HeraOptions serial_opts;
  auto want = Hera(serial_opts).Run(ds);
  ASSERT_TRUE(want.ok());

  for (size_t threads : {0u, 4u}) {
    HeraOptions opts;
    opts.num_threads = threads;
    auto inc = IncrementalHera::Create(opts, ds.schemas());
    ASSERT_TRUE(inc.ok());
    for (const Record& r : ds.records()) {
      ASSERT_TRUE((*inc)->AddRecord(r.schema_id(), r.values()).ok());
    }
    failpoint::Arm("engine.merge", Status::Internal("boom"), /*skip=*/4,
                   /*trips=*/1);
    auto first = (*inc)->Resolve();
    failpoint::DisarmAll();
    ASSERT_FALSE(first.ok()) << "threads=" << threads;
    auto second = (*inc)->Resolve();  // Resume to fixpoint.
    ASSERT_TRUE(second.ok()) << "threads=" << threads;
    EXPECT_EQ((*inc)->Labels(), want->entity_of) << "threads=" << threads;
  }
}

TEST(ParallelEngineTest, ReportRecordsThreadCountAndWorkerActivity) {
  Dataset ds = MovieData(120, 17);
  HeraOptions opts;
  opts.num_threads = 4;
  opts.collect_report = true;
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  const std::string json = result->report.ToJson();
#ifndef HERA_DISABLE_OBS
  EXPECT_NE(json.find("parallel.num_threads"), std::string::npos);
  EXPECT_NE(json.find("simjoin.distinct_values"), std::string::npos);
#else
  // Instrumentation compiled out: the report is empty-but-valid.
  EXPECT_TRUE(result->report.empty());
  EXPECT_NE(json.find("\"collected\""), std::string::npos);
#endif
}

#ifndef HERA_DISABLE_OBS

TEST(ParallelEngineTest, WorkerSpansCoverJoinPhases) {
  Dataset ds = MovieData(200, 19);
  HeraOptions opts;
  opts.num_threads = 4;
  opts.collect_report = true;
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  const obs::RunReport& r = result->report;
  ASSERT_FALSE(r.worker_spans.empty());
  std::set<std::string> phases;
  size_t max_worker = 0;
  for (const obs::WorkerSpanRecord& s : r.worker_spans) {
    phases.insert(s.name);
    max_worker = std::max(max_worker, s.worker);
    EXPECT_LT(s.worker, 4u);
    EXPECT_GE(s.start_ms, 0.0);
    EXPECT_GE(s.dur_ms, 0.0);
  }
  // The prefix-filter join's probe phase always runs chunked; with 4
  // workers on 200 records more than one worker claims chunks.
  EXPECT_TRUE(phases.count("join.probe") || phases.count("join.tokenize"))
      << "no join worker spans recorded";
  // The compare-and-merge loop is serial: no worker runs verification.
  EXPECT_EQ(phases.count("verify.phase_a"), 0u);
  EXPECT_GT(max_worker, 0u);
  EXPECT_EQ(r.dropped_worker_spans, 0u);
}

// Every PairsFor lookup happens in the serial loop, so the probe count
// is a function of the input, not of the pool.
TEST(ParallelEngineTest, IndexProbeCountIsIdenticalAcrossThreadCounts) {
  Dataset ds = MovieData(300, 3);
  auto probes = [&](size_t threads) {
    HeraOptions opts;
    opts.num_threads = threads;
    opts.collect_report = true;
    auto result = Hera(opts).Run(ds);
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString();
      return uint64_t{0};
    }
    EXPECT_GT(result->stats.merges, 0u);
    return result->report.counters.at("index.probes");
  };
  const uint64_t serial = probes(0);
  EXPECT_GT(serial, 0u);
  for (size_t threads : {2u, 4u}) {
    EXPECT_EQ(probes(threads), serial) << "threads=" << threads;
  }
}

// A serial run splits its join into phases too: each phase runs as one
// chunk on the calling thread, reported as worker 0. The expansion has
// two passes (count, then fill), so it records two spans.
TEST(ParallelEngineTest, SerialRunRecordsJoinPhaseSpansOnWorkerZero) {
  Dataset ds = MovieData(100, 23);
  for (size_t threads : {0u, 1u}) {
    HeraOptions opts;
    opts.num_threads = threads;
    opts.collect_report = true;
    auto result = Hera(opts).Run(ds);
    ASSERT_TRUE(result.ok());
    std::map<std::string, size_t> spans;
    for (const obs::WorkerSpanRecord& s : result->report.worker_spans) {
      ++spans[s.name];
      EXPECT_EQ(s.worker, 0u) << s.name << " threads=" << threads;
      EXPECT_GE(s.dur_ms, 0.0);
    }
    EXPECT_EQ(spans["join.tokenize"], 1u) << "threads=" << threads;
    EXPECT_EQ(spans["join.probe"], 1u) << "threads=" << threads;
    EXPECT_EQ(spans["join.expand"], 2u) << "threads=" << threads;
  }
}

// The determinism contract extended to profiling: sampler and worker
// spans observe, never steer. Labels and merge sequences must be
// byte-identical at every thread count with profiling on or off.
TEST(ParallelEngineTest, ProfilingOnOrOffIsByteIdenticalAcrossThreads) {
  Dataset ds = MovieData(150, 29);
  HeraOptions base;
  auto want = Hera(base).Run(ds);
  ASSERT_TRUE(want.ok());
  for (size_t threads : {0u, 4u, 8u}) {
    for (bool profile : {false, true}) {
      HeraOptions opts;
      opts.num_threads = threads;
      if (profile) {
        opts.collect_report = true;
        opts.timeline_interval_ms = 1;
      }
      auto got = Hera(opts).Run(ds);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(want->entity_of, got->entity_of)
          << "threads=" << threads << " profile=" << profile;
      EXPECT_EQ(want->stats.merge_sequence, got->stats.merge_sequence)
          << "threads=" << threads << " profile=" << profile;
    }
  }
}

// TSan target: the sampler thread reads its probes while 4 workers and
// the controller mutate the run. Any non-atomic shared read would
// surface here under -DHERA_SANITIZE=thread.
TEST(ParallelEngineTest, ConcurrentSamplerIsRaceFreeUnderLoad) {
  Dataset ds = MovieData(200, 31);
  HeraOptions opts;
  opts.num_threads = 4;
  opts.timeline_interval_ms = 1;  // Aggressive tick while resolving.
  auto result = Hera(opts).Run(ds);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->report.collected);
  EXPECT_GE(result->report.timeline.samples.size(), 2u);
  EXPECT_GT(result->stats.merges, 0u);
}

#endif  // HERA_DISABLE_OBS

}  // namespace
}  // namespace hera
