// Similarity join (Definition 7): all value pairs across different
// records whose similarity is at least ξ. This is the engine behind
// index construction (Section III-A).

#ifndef HERA_SIMJOIN_SIMILARITY_JOIN_H_
#define HERA_SIMJOIN_SIMILARITY_JOIN_H_

#include <memory>
#include <vector>

#include "common/run_guard.h"
#include "common/status.h"
#include "index/flat_table.h"
#include "parallel/thread_pool.h"
#include "record/super_record.h"
#include "sim/pair_cache.h"
#include "sim/similarity.h"
#include "text/token_cache.h"

namespace hera {

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
  /// ceiling; candidate recall may be reduced.
  size_t shed_posting_entries = 0;
  /// Value pairs surfaced by candidate generation (for the nested-loop
  /// join every cross-record pair is a candidate).
  size_t candidates = 0;
  /// Candidates scored by the similarity metric (== candidates unless
  /// truncated mid-verification or pruned by the positional/suffix
  /// filters below).
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
  ///   prefix -> length -> positional -> suffix -> candidate
  /// and is counted in exactly one bucket the first time it is pruned:
  /// `pruned_prefix` — pairs sharing no indexed prefix token (derived:
  /// eligible token pairs minus encountered ones); `pruned_length` —
  /// encountered pairs failing the length filter; `pruned_positional`
  /// / `pruned_suffix` — PPJoin+-style position and suffix bounds,
  /// applied only when the filter threshold is exact (q-gram Jaccard),
  /// so pruning never changes the emitted pairs.
  size_t pruned_prefix = 0;
  size_t pruned_length = 0;
  size_t pruned_positional = 0;
  size_t pruned_suffix = 0;
  /// Keys probed through the flat backend's batched entry points
  /// (gram dictionary + posting table); 0 under the ordered backend.
  size_t flat_probes_batched = 0;
  /// Flat-table capacity doublings during this join's dictionary and
  /// posting-table builds; 0 under the ordered backend.
  size_t flat_rehashes = 0;
  /// Worker threads the join's parallel phases ran on (1 = serial).
  size_t threads_used = 1;
  /// Per-worker busy microseconds summed across the join's parallel
  /// phases; empty when the join ran serially. Feeds the
  /// parallel.worker_busy_us histogram.
  std::vector<double> worker_busy_us;
  /// One chunk executed on a pool worker in one of the join's parallel
  /// phases ("join.numeric", "join.tokenize", "join.probe",
  /// "join.nested"). Collected only when the joiner's
  /// SetCollectWorkerSpans is on and a pool is installed; start_us is
  /// relative to the join call's entry. Feeds the trace export's
  /// per-worker tracks.
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

  /// Shares a verified-pair similarity cache across joins and rounds:
  /// metric verification of string pairs is served from it when the
  /// cache was built for the same metric (Name() match). Scores are a
  /// pure function of the two texts, so caching never changes results.
  /// Kernel-eligible metrics bypass it (the kernel is cheaper than the
  /// lookup); it pays off for edit/Jaro/Monge–Elkan-style metrics.
  void SetPairSimCache(std::shared_ptr<PairSimCache> cache) {
    pair_cache_ = std::move(cache);
  }
  const PairSimCache* pair_sim_cache() const { return pair_cache_.get(); }

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

 protected:
  /// The installed cache when it matches `simv`, else nullptr.
  PairSimCache* PairCacheFor(const ValueSimilarity& simv) const {
    return (pair_cache_ && pair_cache_->metric_name() == simv.Name())
               ? pair_cache_.get()
               : nullptr;
  }

 private:
  ThreadPool* pool_ = nullptr;
  std::shared_ptr<PairSimCache> pair_cache_;
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
};

/// \brief AllPairs/PPJoin+-style join: q-gram tokens interned in
/// ascending global frequency, length + prefix filters over an
/// inverted index — plus positional and suffix filters when the
/// threshold is exact — then verification on the encoded token sets
/// (kernel-eligible metrics) or with the actual metric.
///
/// Both entry points run one pipeline: a numeric sweep, a tokenize
/// phase, a dictionary build, a posting build, and one probe loop with
/// its filter/verify body. They differ only in what probes what.
/// Join() probes each set, in ascending-size order, against the prefix
/// lists of the sets before it, with a one-sided length filter. JoinAB()
/// probes each probe set against the base's full lists, with a
/// two-sided length filter. Counters follow the same definitions in
/// both: a candidate is counted before the same-record skip, and the
/// batch in flight at a guard trip is counted shed. JoinAB also ticks
/// the guard on each probe's gathered postings before scanning them,
/// since full base lists can be long while few entries pass the filters.
///
/// Emission order is part of the contract. The output is the numeric
/// pairs, then the token pairs, each in probe order (for Join, sorted
/// value order and ascending set size), and within one probe in
/// posting-scan order. ValuePairIndex assigns pids in this order, and
/// pids break ties among equal-similarity pairs, so the order is
/// byte-identical across thread counts and index backends.
///
/// The filter stack is *exact* (no false negatives) when the metric is
/// q-gram Jaccard with the same q — HERA's default; the positional and
/// suffix filters apply only then. For other string metrics the prefix
/// threshold is scaled down by `filter_slack` (candidate generation
/// becomes heuristic blocking; verification still uses the true
/// metric). Numeric values are joined by a sorted sweep, exact for the
/// relative-difference and absolute-tolerance numeric similarities.
class PrefixFilterJoin : public SimilarityJoin {
 public:
  using SimilarityJoin::Join;
  using SimilarityJoin::JoinAB;

  explicit PrefixFilterJoin(int q = 2, double filter_slack = 0.7)
      : q_(q), filter_slack_(filter_slack) {}

  /// Shares an interned-gram cache across joins (and rounds): value
  /// tokenization is served from it instead of re-extracting q-grams.
  /// A cache built for a different gram length is ignored. Caching
  /// never changes results — only the tokenization cost.
  void SetTokenCache(std::shared_ptr<TokenCache> cache) {
    cache_ = std::move(cache);
  }
  const TokenCache* token_cache() const { return cache_.get(); }

  /// Gram length of the filter's tokenization (a compatible TokenCache
  /// must be built with the same q).
  int q() const { return q_; }

  /// Selects the hash backend for the join's gram dictionary and token
  /// posting table. kFlat batches each record's prefix-token probes
  /// through FlatTable's software-prefetch pipeline (index/flat_table.h)
  /// with `pipeline_depth` probes in flight; candidate order, emitted
  /// pairs, and shed decisions are byte-identical to kOrdered — the
  /// backend is a speed knob only. The gram dictionary falls back to
  /// ordered when q > kMaxPackedGramLen (the posting table, keyed on
  /// integer ids, stays flat).
  void SetIndexBackend(
      IndexBackend backend,
      size_t pipeline_depth = FlatTable::kDefaultPipelineDepth) {
    backend_ = backend;
    pipeline_depth_ = pipeline_depth;
  }
  IndexBackend index_backend() const { return backend_; }
  size_t pipeline_depth() const { return pipeline_depth_; }

  /// Toggles the integer-encoded verification kernels (sim/kernel.h)
  /// and the PPJoin+-style positional/suffix filters that ride on
  /// them. On (the default), kernel-eligible metrics (Jaccard / Dice /
  /// overlap / cosine over q-grams with matching q) are verified
  /// directly on the encoded token sets with threshold-driven early
  /// exit — bit-equal to the string path, so emitted pairs are
  /// byte-identical either way. Off verifies every candidate with the
  /// metric itself (A/B comparisons, debugging).
  void SetEncodedKernels(bool enabled) { encoded_kernels_ = enabled; }
  bool encoded_kernels() const { return encoded_kernels_; }

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
  bool encoded_kernels_ = true;
  IndexBackend backend_ = IndexBackend::kOrdered;
  size_t pipeline_depth_ = FlatTable::kDefaultPipelineDepth;
  std::shared_ptr<TokenCache> cache_;
};

}  // namespace hera

#endif  // HERA_SIMJOIN_SIMILARITY_JOIN_H_
