// Similarity join (Definition 7): all value pairs across different
// records whose similarity is at least ξ. This is the engine behind
// index construction (Section III-A).

#ifndef HERA_SIMJOIN_SIMILARITY_JOIN_H_
#define HERA_SIMJOIN_SIMILARITY_JOIN_H_

#include <memory>
#include <vector>

#include "common/run_guard.h"
#include "common/status.h"
#include "parallel/thread_pool.h"
#include "record/super_record.h"
#include "sim/pair_cache.h"
#include "sim/similarity.h"
#include "text/token_cache.h"

namespace hera {

/// The join's hash layout. There is one; HeraOptions::index_backend and
/// the setters that take it are ignored. They remain only for
/// perfbench's traced run, which still names them, until a benchmark
/// change drops those calls.
enum class IndexBackend { kOrdered };

/// One value with its (rid, fid, vid) label.
struct LabeledValue {
  ValueLabel label;
  Value value;
};

/// A similar value pair and its similarity; the element type of V.
struct ValuePair {
  ValueLabel a;
  ValueLabel b;
  double sim = 0.0;
};

/// What a guarded join did, shed, or skipped (see common/run_guard.h).
/// The candidate/verified counters expose the filter-vs-verify split
/// of the join's work for the observability layer: `candidates` is
/// what survived the cheap filters (length/prefix/window), `verified`
/// is how many of those the actual metric scored.
struct JoinReport {
  /// The join stopped early on deadline expiry or cancellation; `out`
  /// holds every pair found so far (each is genuinely similar — the
  /// result is a subset, never wrong).
  bool truncated = false;
  /// Posting-list entries dropped by the guard's max_posting_list
  /// ceiling (one entry per distinct text on the prefix-filter join);
  /// candidate recall may be reduced.
  size_t shed_posting_entries = 0;
  /// Value pairs surfaced by candidate generation (for the nested-loop
  /// join every cross-record pair is a candidate).
  size_t candidates = 0;
  /// Candidates scored by the similarity metric (== candidates unless
  /// the guard tripped mid-verification).
  size_t verified = 0;
  /// Candidates generated but dropped unverified at a guard trip
  /// boundary — exact at the trip, including the batch whose weighted
  /// Tick(n) check fired: for truncated joins,
  /// candidates == verified + shed_candidates on the record-pair path.
  size_t shed_candidates = 0;
  /// Pairs that met xi and were emitted into `out`.
  size_t emitted = 0;
  /// Per-filter pruning counters for the token path (all zero for the
  /// nested-loop join). A token-path pair flows
  ///   prefix -> length -> positional -> candidate
  /// and is counted in exactly one bucket the first time it is pruned:
  /// `pruned_prefix` — pairs sharing no indexed prefix token (derived:
  /// eligible token pairs minus encountered ones); `pruned_length` —
  /// encountered pairs failing the length filter; `pruned_positional`
  /// — the PPJoin positional bound, applied only when the filter
  /// threshold is exact (q-gram Jaccard), so pruning never changes the
  /// emitted pairs.
  size_t pruned_prefix = 0;
  size_t pruned_length = 0;
  size_t pruned_positional = 0;
  /// Always 0: the join has no suffix filter. Kept because
  /// perfbench/src/traced_run.cc still reports it.
  size_t pruned_suffix = 0;
  /// Distinct token-path values (the prefix-filter join interns its
  /// token-path values by exact payload and joins each once; 0 for the
  /// nested-loop join). On that path `candidates`, `verified` and the
  /// pruned counters count pairs of distinct values, not occurrences;
  /// the self-join's second orientation of an equal-size pair is not
  /// counted again, whatever the metric.
  size_t distinct_values = 0;
  /// Distinct-value verifications that met xi, each distinct pair once;
  /// each expands into the occurrence pairs counted by `emitted`.
  size_t distinct_emitted = 0;
  /// Worker threads the join's parallel phases ran on (1 = serial).
  size_t threads_used = 1;
  /// Per-worker busy microseconds summed across the join's parallel
  /// phases; empty when the join ran serially. Feeds the
  /// parallel.worker_busy_us histogram.
  std::vector<double> worker_busy_us;
  /// One chunk executed by a worker in one of the join's phases
  /// ("join.numeric", "join.tokenize", "join.probe", "join.expand",
  /// "join.nested"). Collected only when the joiner's
  /// SetCollectWorkerSpans is on; a serial join runs each phase as one
  /// chunk on worker 0. start_us is relative to the join call's entry.
  /// Feeds the trace export's per-worker tracks.
  struct WorkerSpan {
    const char* phase = "";
    size_t chunk = 0;
    size_t worker = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
  };
  std::vector<WorkerSpan> worker_spans;
};

/// \brief Abstract similarity join over labeled value sets.
///
/// Join() is a self-join: every pair (a, b) with a.rid != b.rid and
/// simv(a, b) >= xi, each unordered pair reported once. JoinAB() is the
/// two-set form used by incremental resolution: pairs (p, q) with p
/// from `probe`, q from `base`, different rids, simv >= xi.
///
/// The guarded forms stop at the next check stride once `guard`
/// reports interruption (partial output, report->truncated) and honor
/// its posting-list ceiling; they fail only via fault injection
/// (HERA_FAILPOINT "simjoin.join"). The 3-argument convenience forms
/// run unguarded.
///
/// Parallelism: SetExecutor installs a worker pool; the probe stream
/// is then partitioned into chunks claimed via an atomic cursor, each
/// chunk writing a thread-local buffer, and the buffers concatenated
/// in chunk order — so for runs that complete (no deadline truncation)
/// the output pair list is byte-identical to the serial path for any
/// worker count (see docs/performance.md). A null pool (default) or a
/// single-worker pool is the serial path.
class SimilarityJoin {
 public:
  virtual ~SimilarityJoin() = default;

  /// Installs the worker pool used by the guarded joins; the caller
  /// retains ownership and the pool must outlive every join call.
  /// nullptr (the default) restores the serial path.
  void SetExecutor(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* executor() const { return pool_; }

  /// Ignored (see sim/pair_cache.h); remains only for perfbench's
  /// traced run until a benchmark change drops the call.
  void SetPairSimCache(std::shared_ptr<PairSimCache> /*cache*/) {}

  /// Records per-chunk worker spans into JoinReport::worker_spans (two
  /// extra clock reads per chunk; off by default). Recording never
  /// affects which pairs are emitted — it is observation only.
  void SetCollectWorkerSpans(bool on) { collect_worker_spans_ = on; }
  bool collect_worker_spans() const { return collect_worker_spans_; }


  /// Unguarded convenience forms.
  std::vector<ValuePair> Join(const std::vector<LabeledValue>& values,
                              const ValueSimilarity& simv, double xi) const;
  std::vector<ValuePair> JoinAB(const std::vector<LabeledValue>& probe,
                                const std::vector<LabeledValue>& base,
                                const ValueSimilarity& simv, double xi) const;

  /// Guarded core. `out` is cleared first; `report` may be null.
  virtual Status Join(const std::vector<LabeledValue>& values,
                      const ValueSimilarity& simv, double xi,
                      const RunGuard& guard, std::vector<ValuePair>* out,
                      JoinReport* report = nullptr) const = 0;
  virtual Status JoinAB(const std::vector<LabeledValue>& probe,
                        const std::vector<LabeledValue>& base,
                        const ValueSimilarity& simv, double xi,
                        const RunGuard& guard, std::vector<ValuePair>* out,
                        JoinReport* report = nullptr) const = 0;

 private:
  ThreadPool* pool_ = nullptr;
  bool collect_worker_spans_ = false;
};

/// \brief O(n^2) reference implementation; correctness oracle in tests
/// and the "basic nest-loop method" baseline of the paper's efficiency
/// claim.
class NestedLoopJoin : public SimilarityJoin {
 public:
  using SimilarityJoin::Join;
  using SimilarityJoin::JoinAB;

  Status Join(const std::vector<LabeledValue>& values,
              const ValueSimilarity& simv, double xi, const RunGuard& guard,
              std::vector<ValuePair>* out,
              JoinReport* report = nullptr) const override;

  Status JoinAB(const std::vector<LabeledValue>& probe,
                const std::vector<LabeledValue>& base,
                const ValueSimilarity& simv, double xi, const RunGuard& guard,
                std::vector<ValuePair>* out,
                JoinReport* report = nullptr) const override;

 private:
  /// The scan behind both entry points: the self-join of `base` when
  /// `probe` is null, else `probe` against `base`.
  Status Scan(const std::vector<LabeledValue>* probe,
              const std::vector<LabeledValue>& base,
              const ValueSimilarity& simv, double xi, const RunGuard& guard,
              std::vector<ValuePair>* out, JoinReport* report) const;
};

/// \brief AllPairs/PPJoin-style join: q-gram tokens interned in
/// ascending global frequency, length + prefix filters over an
/// inverted index — plus the positional filter when the threshold is
/// exact — then verification. Every q-gram set metric with the
/// filter's q is verified on the encoded token sets: each worker sets
/// the probe's gram ids in a dense bitmap over the dictionary, tests
/// each candidate's ids against it, and stops once the minimum overlap
/// α is out of reach. α is computed once per (probe, candidate size)
/// and shared with the positional filter. When no posting list is
/// capped, the scan starts after the pair's first shared prefix token,
/// which it counts, since no token below it can be shared; with a
/// capped list it reads the whole candidate. The edit family
/// (IsEditMetric) is verified with the floor-aware banded Levenshtein
/// on the normalized distinct texts, and any other metric with
/// simv.Compute. Which of the three a join uses follows from the
/// metric's name alone; the first two return the metric's bit-equal
/// score whenever it reaches ξ, so the choice never changes the output.
///
/// Both entry points run one pipeline: a numeric sweep, then the token
/// path over each distinct value: interning, tokenizing, a dictionary
/// build, a posting build, and one probe loop with its filter/verify
/// body; then an expansion of the similar distinct pairs into labeled
/// occurrence pairs. Values are interned by exact payload (a string by
/// its text, a number by its bit pattern), so every distinct text is
/// tokenized, indexed and verified once however often it occurs. Each
/// call tokenizes afresh: no gram cache outlives a join. Tokenizing
/// normalizes each distinct text once; the edit family keeps that text
/// for verification, so no candidate renders or normalizes a string.
/// The entry points differ only in what probes what. Join() probes each
/// distinct set, in ascending-size order, against the prefix lists of
/// the sets before it, with a one-sided length filter, and pairs a text
/// that occurs in several records with itself. JoinAB() probes each
/// distinct probe set against the base's full lists, with a two-sided
/// length filter. Counters follow the same definitions in both, over
/// distinct pairs: a candidate is verified unless the guard trips, and
/// the batch in flight at a guard trip is counted shed. JoinAB also
/// ticks the guard on each probe's gathered postings before scanning
/// them, since full base lists can be long while few entries pass the
/// filters. The expansion ticks the guard by the pairs it expands.
///
/// Emission order is part of the contract. The output is the numeric
/// pairs, then the token pairs in the order a join over the occurrences
/// themselves would emit them: by probe occurrence (for Join, the
/// occurrences sorted by set size), then by the probe's first prefix
/// position shared with the candidate, then by candidate occurrence.
/// ValuePairIndex assigns pids in this order, and pids break ties among
/// equal-similarity pairs, so the order is byte-identical across thread
/// counts. The guard's max_posting_list ceiling caps distinct-text
/// entries per list.
///
/// The filter stack is *exact* (no false negatives) when the metric is
/// q-gram Jaccard with the same q — HERA's default; the positional
/// filter applies only then. For other string metrics the prefix
/// threshold is scaled down by `filter_slack` (candidate generation
/// becomes heuristic blocking; verification still yields the true
/// metric's score). Numeric values are joined by a sorted sweep, exact for the
/// relative-difference and absolute-tolerance numeric similarities.
class PrefixFilterJoin : public SimilarityJoin {
 public:
  using SimilarityJoin::Join;
  using SimilarityJoin::JoinAB;

  explicit PrefixFilterJoin(int q = 2, double filter_slack = 0.7)
      : q_(q), filter_slack_(filter_slack) {}

  /// Gram length of the filter's tokenization.
  int q() const { return q_; }

  /// Ignored: each join tokenizes every distinct value text once, with
  /// no cache. Remains only for perfbench's traced run, which still
  /// calls it, until a benchmark change drops the call.
  void SetTokenCache(std::shared_ptr<TokenCache> /*cache*/) {}

  /// Ignored (see IndexBackend); remains only for perfbench's traced
  /// run until a benchmark change drops the call.
  void SetIndexBackend(IndexBackend /*backend*/, size_t /*pipeline_depth*/) {}

  /// Ignored: every q-gram set metric (Jaccard / Dice / overlap /
  /// cosine with matching q) is verified on the integer-encoded gram
  /// sets (sim/kernel.h). Remains only for perfbench's traced run,
  /// which still calls it, until a benchmark change drops the call.
  void SetEncodedKernels(bool /*enabled*/) {}

  Status Join(const std::vector<LabeledValue>& values,
              const ValueSimilarity& simv, double xi, const RunGuard& guard,
              std::vector<ValuePair>* out,
              JoinReport* report = nullptr) const override;

  /// Probe-vs-base join: the base's tokens are fully indexed, probes
  /// search with their prefix tokens plus a two-sided length filter —
  /// exact (no false negatives) for the Jaccard metric.
  Status JoinAB(const std::vector<LabeledValue>& probe,
                const std::vector<LabeledValue>& base,
                const ValueSimilarity& simv, double xi, const RunGuard& guard,
                std::vector<ValuePair>* out,
                JoinReport* report = nullptr) const override;

 private:
  /// The pipeline behind both entry points: the self-join of `base`
  /// when `probe` is null, else `probe` against `base`.
  Status Probe(const std::vector<LabeledValue>* probe,
               const std::vector<LabeledValue>& base,
               const ValueSimilarity& simv, double xi, const RunGuard& guard,
               std::vector<ValuePair>* out, JoinReport* report) const;

  int q_;
  double filter_slack_;
};

}  // namespace hera

#endif  // HERA_SIMJOIN_SIMILARITY_JOIN_H_
