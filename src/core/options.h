// Configuration and run statistics for HERA.

#ifndef HERA_CORE_OPTIONS_H_
#define HERA_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/run_guard.h"
#include "common/status.h"
#include "sim/kernel_dispatch.h"
#include "sim/similarity.h"
#include "simjoin/similarity_join.h"

namespace hera {

/// \brief Tuning knobs for the HERA algorithm (Algorithm 2).
struct HeraOptions {
  /// Value/field similarity threshold ξ (Definitions 4, 7).
  double xi = 0.5;

  /// Record similarity threshold δ (Definition 5 / stop condition).
  double delta = 0.5;

  /// Value similarity metric by registry name (see MakeSimilarity).
  /// Ignored when `similarity` is set. The paper's default is Jaccard
  /// over 2-grams.
  std::string metric = "jaccard_q2";

  /// Explicit black-box metric; overrides `metric` when non-null.
  ValueSimilarityPtr similarity;

  /// Index construction via the prefix-filter join (true) or the
  /// nested-loop oracle (false; the paper's slow baseline).
  bool use_prefix_filter_join = true;

  /// Ignored: the prefix-filter join verifies every q-gram set metric
  /// on the integer-encoded gram sets (sim/kernel.h). Remains only for
  /// perfbench's traced run, which still reads it, until a benchmark
  /// change drops it. Not part of checkpoint fingerprints.
  bool use_encoded_kernels = true;

  /// Ignored: the similarity kernels have one scalar path (see
  /// sim/kernel_dispatch.h). Remains only for perfbench's traced run,
  /// which still reads it, until a benchmark change drops it. Not part
  /// of checkpoint fingerprints.
  KernelDispatch kernel_dispatch = KernelDispatch::kScalar;

  /// Ignored, as is pair_sim_cache_capacity: the join verifies each
  /// pair of distinct value texts once, so there is no pair cache (see
  /// sim/pair_cache.h). Both remain only for perfbench's traced run,
  /// which still reads them, until a benchmark change drops them.
  bool enable_pair_sim_cache = true;
  size_t pair_sim_cache_capacity = 1u << 20;

  /// Ignored, as is flat_pipeline_depth: the join has one hash layout
  /// (see IndexBackend). Both remain only for perfbench's traced run,
  /// which still passes them on, until a benchmark change drops them.
  IndexBackend index_backend = IndexBackend::kOrdered;
  size_t flat_pipeline_depth = 8;

  /// Enables the schema-based method (Section IV-B): majority voting
  /// over field-match predictions, with decided matchings forced into
  /// later field matching sets.
  bool enable_schema_voting = true;

  /// Theorem 2 prior p = Pr(single prediction correct); in (0.5, 1].
  double vote_prior_p = 0.8;

  /// Error-probability threshold ρ: decide a matching when
  /// UP_error < ρ.
  double vote_rho = 0.6;

  /// Candidate-generation bound mode: false reproduces the paper's
  /// Algorithm 1 (upper bound over the left record's fields only);
  /// true uses the tighter two-sided bound, which resolves more pairs
  /// without verification (faster, but starves the KM/voting paths the
  /// paper's m̄ statistics measure). See index/bounds.h.
  bool tight_bounds = false;

  /// Safety cap on compare-and-merge iterations.
  size_t max_iterations = 1000;

  /// Worker threads for the similarity join: numeric sweep,
  /// tokenization, and prefix-filter probing. 0 or 1 runs fully serial
  /// (the default; no pool is created). The compare-and-merge loop is
  /// always serial. Completed runs produce byte-identical pair lists,
  /// merge sequences, and clusters at every thread count (see
  /// docs/performance.md).
  size_t num_threads = 0;

  /// Run governance: deadline, cancellation token, resource ceilings.
  /// The default guard imposes nothing (and costs nothing). See
  /// docs/operational_limits.md.
  RunGuard guard;

  /// Collect a structured RunReport (per-phase spans, per-iteration
  /// counters, histograms, governance events) on HeraResult::report.
  /// Off by default: the disabled path is a handful of null-pointer
  /// checks, so Fig 12-style timings stay honest. Ignored when the
  /// library is built with -DHERA_OBS=OFF. See docs/observability.md.
  bool collect_report = false;

  /// Tick period of the background timeline sampler, which snapshots
  /// process RSS/CPU and the run's counters (merges, verified groups,
  /// emitted pairs, index size) into RunReport::timeline. 0 (the default)
  /// disables the sampler thread entirely. Implies report collection
  /// when set. Sampling is read-only over atomics — labels and
  /// merge_sequence are byte-identical with it on or off. Ignored
  /// under -DHERA_OBS=OFF.
  size_t timeline_interval_ms = 0;

  /// Ring capacity of the timeline (oldest samples overwritten beyond
  /// it; RunReport::timeline.dropped counts the loss).
  size_t timeline_capacity = 4096;

  /// Directory for durable checkpoints (snapshots + write-ahead log).
  /// Empty (the default) disables checkpointing entirely. When set, a
  /// snapshot is written after indexing, every `checkpoint_every`
  /// iterations, and at run end (including guard truncation), with one
  /// WAL entry fsync'd per completed pass in between — a killed run
  /// resumes via Hera::Resume / IncrementalHera::Restore and produces
  /// byte-identical clusters. See docs/file_format.md.
  std::string checkpoint_dir;

  /// Snapshot cadence in compare-and-merge iterations; must be > 0
  /// when checkpoint_dir is set. Passes between snapshots cost one
  /// WAL fsync each.
  size_t checkpoint_every = 8;

  /// Progressive (budget-aware) execution. When the run is governed —
  /// a deadline, cancellation token, or verification budget
  /// (RunGuard::WithMaxVerifications) is set — each pass verifies its
  /// candidate groups best-first: ordered by descending group upper
  /// bound Up (GroupBounds over the group's indexed value pairs, in a
  /// pre-pass of ResolutionEngine's compare-and-merge loop) instead of
  /// canonical index order, so work shed at the cut is the *least
  /// promising* work. On a cut, unverified groups drain into the
  /// checkpointable deferred queue and the run ends with a truncated
  /// outcome + final snapshot; `--resume` picks them up. A resume with
  /// the budget lifted reaches the uninterrupted run's labels on the
  /// ambiguous corpus from every cut tested, but merge order is not
  /// confluent in general: on 200 movies it ends with other labels
  /// (EngineCountersTest). ROADMAP item 2's oracle is to settle it.
  /// Ungoverned progressive runs keep canonical order — labels and
  /// merge_sequence stay byte-identical to progressive=false at every
  /// thread count. See docs/operational_limits.md
  /// ("Progressive mode").
  bool progressive = false;
};

/// Checks option ranges: xi, delta in [0, 1]; vote_prior_p in
/// (0.5, 1]; vote_rho > 0; max_iterations > 0. The metric name is
/// checked separately at resolution time. Run/RunWithPairs/
/// IncrementalHera::Create call this and refuse to start on violation.
Status ValidateOptions(const HeraOptions& options);

/// \brief How a run ended, in increasing severity. A single outcome is
/// reported: when several conditions co-occur (e.g. pairs were shed
/// *and* the deadline expired) the most severe wins; the shed counters
/// in HeraStats carry the details either way.
enum class RunOutcome {
  kCompleted = 0,          ///< Fixpoint reached, nothing shed.
  kDegraded,               ///< Ceiling breached; load was shed.
  kIterationCap,           ///< max_iterations hit while still merging.
  kTruncatedBudget,        ///< Verification budget spent; partial result.
  kTruncatedDeadline,      ///< Deadline expired; partial result.
  kTruncatedCancelled,     ///< Cancelled via token; partial result.
};

/// Stable name for an outcome ("completed", "truncated_deadline"...).
const char* RunOutcomeToString(RunOutcome outcome);

/// Inverse of RunOutcomeToString. Returns false (and leaves `out`
/// untouched) on an unrecognized name. Every name RunOutcomeToString
/// emits round-trips.
bool RunOutcomeFromString(const std::string& name, RunOutcome* out);

/// \brief Counters and timings filled in by one HERA run; these are the
/// quantities reported in the paper's Table II and Figures 10/12.
struct HeraStats {
  size_t index_size = 0;          ///< |S|: value pairs in the index at build.
  size_t iterations = 0;          ///< k: compare-and-merge passes.
  size_t comparisons = 0;         ///< Verifier invocations (Fig 10).
  size_t candidates = 0;          ///< Pairs sent to verification in total.
  size_t direct_merges = 0;       ///< |R'|: resolved by Up == Low.
  size_t pruned_by_bound = 0;     ///< Groups discarded because Up < δ.
  size_t merges = 0;              ///< Total merge operations.
  size_t decided_schema_matchings = 0;  ///< Promoted by majority vote.
  double avg_simplified_nodes = 0.0;    ///< m̄: mean |X'|+|Y'| fed to KM.
  /// Offline index construction (similarity join + sort), accumulated
  /// across incremental rounds.
  double index_build_ms = 0.0;
  /// Online resolution time (candidate generation + verification +
  /// merging), excluding the offline index build — the quantity the
  /// paper's Fig 12 reports ("the index could be built off-line").
  double total_ms = 0.0;

  /// How the run ended (most severe condition observed; for
  /// incremental resolution, of the latest Resolve round).
  RunOutcome outcome = RunOutcome::kCompleted;
  /// Value pairs dropped by the max_index_pairs ceiling.
  size_t shed_index_pairs = 0;
  /// Posting-list entries dropped by the max_posting_list ceiling
  /// (join token postings + per-record index lists).
  size_t shed_posting_entries = 0;
  /// Candidate groups pushed to a later iteration by the
  /// max_candidates_per_iteration ceiling. Deferred groups are
  /// re-examined, so deferral alone does not change the fixpoint —
  /// only ending the run with deferrals still pending degrades it.
  size_t deferred_candidate_groups = 0;
  /// True when the similarity join stopped early (deadline/cancel) and
  /// the index is missing pairs the full join would have found.
  bool join_truncated = false;
  /// Join candidates generated but dropped unverified at a guard trip
  /// boundary (exact at the trip: candidates == verified +
  /// shed_join_candidates for truncated joins).
  size_t shed_join_candidates = 0;
  /// Candidate groups that entered best-first frontier ordering
  /// (progressive mode with governance active), cumulative over
  /// passes.
  size_t frontier_groups = 0;
  /// Groups deferred unverified because the verification budget ran
  /// out or the guard tripped mid-pass in progressive mode. Deferred
  /// groups persist in the checkpoint and are re-examined on resume.
  size_t budget_deferred_groups = 0;

  /// Every merge in application order, as (surviving rid, absorbed
  /// rid); accumulates across incremental rounds. The determinism
  /// guarantee is stated over this sequence: for completed runs it is
  /// identical at every num_threads setting.
  std::vector<std::pair<uint32_t, uint32_t>> merge_sequence;
};

}  // namespace hera

#endif  // HERA_CORE_OPTIONS_H_
