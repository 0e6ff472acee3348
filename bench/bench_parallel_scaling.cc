// Parallel scaling: wall time vs worker threads (1/2/4/8) for the
// similarity join and full resolution.
//
// Shape expectations: join and verification time fall as threads rise
// (the speedup column approaches the physical core count; on a
// single-core machine all rows are flat — the point of the harness is
// the *identical results* column, which must read "yes" everywhere).
//
// The final section measures timeline-sampler overhead: the same run
// with collect_report only vs. report + a 50 ms sampler, best of 3.
// The delta is the cost of the sampler thread (expected well under 2%;
// the measured figure is quoted in docs/observability.md).
//
// HERA_BENCH_RECORDS overrides the dataset size (default 2000).
// With HERA_BENCH_JSON_DIR set, the run report of the widest
// configuration is written as BENCH_parallel_scaling.json (including
// its sampled timeline).

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "data/movie_generator.h"

using namespace hera;

namespace {

size_t BenchRecords() {
  const char* v = std::getenv("HERA_BENCH_RECORDS");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 2000;
}

}  // namespace

int main() {
  const size_t thread_counts[] = {1, 2, 4, 8};

  MovieGeneratorConfig config;
  config.num_records = BenchRecords();
  config.num_entities = config.num_records / 8;
  config.seed = 42;
  Dataset ds = GenerateMovieDataset(config);

  std::printf("parallel scaling on movies (%zu records, %zu entities)\n",
              ds.size(), ds.NumEntities());
  bench::PrintRule();
  std::printf("%-8s %10s %12s %10s %9s %10s\n", "threads", "join_ms",
              "resolve_ms", "total_ms", "speedup", "identical");

  std::vector<uint32_t> baseline_labels;
  std::vector<std::pair<uint32_t, uint32_t>> baseline_merges;
  double baseline_ms = 0.0;
  obs::RunReport widest_report;

  for (size_t threads : thread_counts) {
    HeraOptions opts;
    opts.num_threads = threads;
    opts.collect_report = bench::BenchJsonDir() != nullptr;
    // Sample the timeline in instrumented mode so the emitted
    // BENCH_parallel_scaling.json carries merges-vs-time curves.
    if (opts.collect_report) opts.timeline_interval_ms = 50;
    // Best of 3 runs to damp noise.
    double best_join = 1e18, best_resolve = 1e18, best_total = 1e18;
    bool identical = true;
    for (int rep = 0; rep < 3; ++rep) {
      auto result = Hera(opts).Run(ds);
      if (!result.ok()) {
        std::fprintf(stderr, "HERA failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const HeraStats& st = result->stats;
      best_join = std::min(best_join, st.index_build_ms);
      best_resolve = std::min(best_resolve, st.total_ms);
      best_total = std::min(best_total, st.index_build_ms + st.total_ms);
      if (threads == 1 && rep == 0) {
        baseline_labels = result->entity_of;
        baseline_merges = st.merge_sequence;
      }
      identical = identical && result->entity_of == baseline_labels &&
                  st.merge_sequence == baseline_merges;
      if (threads == thread_counts[3]) widest_report = result->report;
    }
    if (threads == 1) baseline_ms = best_total;
    std::printf("%-8zu %10.1f %12.1f %10.1f %8.2fx %10s\n", threads, best_join,
                best_resolve, best_total, baseline_ms / best_total,
                identical ? "yes" : "NO");
  }

  // Timeline-sampler overhead: same resolution with the report on in
  // both arms, the 50 ms sampler only in the second. Best of 5 per arm
  // (interleaved) to damp noise; results must be identical (sampling
  // is read-only).
  bench::PrintRule();
  double best_plain = 1e18, best_sampled = 1e18;
  uint64_t sampled_rows = 0;
  bool sampler_identical = true;
  for (int rep = 0; rep < 5; ++rep) {
    HeraOptions plain;
    plain.num_threads = 4;
    plain.collect_report = true;
    auto r1 = Hera(plain).Run(ds);
    if (!r1.ok()) return 1;
    best_plain =
        std::min(best_plain, r1->stats.index_build_ms + r1->stats.total_ms);

    HeraOptions sampled = plain;
    sampled.timeline_interval_ms = 50;
    auto r2 = Hera(sampled).Run(ds);
    if (!r2.ok()) return 1;
    best_sampled =
        std::min(best_sampled, r2->stats.index_build_ms + r2->stats.total_ms);
    sampled_rows = r2->report.timeline.samples.size();
    sampler_identical = sampler_identical &&
                        r1->entity_of == r2->entity_of &&
                        r1->stats.merge_sequence == r2->stats.merge_sequence;
  }
  double overhead_pct =
      best_plain > 0.0 ? 100.0 * (best_sampled - best_plain) / best_plain : 0.0;
  std::printf(
      "timeline sampler (50 ms, 4 threads): %0.1f ms -> %0.1f ms "
      "(%+.2f%% overhead), %llu samples, identical %s\n",
      best_plain, best_sampled, overhead_pct,
      static_cast<unsigned long long>(sampled_rows),
      sampler_identical ? "yes" : "NO");

  bench::WriteBenchReport("parallel_scaling", widest_report);
  return 0;
}
