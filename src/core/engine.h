// ResolutionEngine: the stateful core shared by batch HERA (Hera::Run)
// and incremental resolution (IncrementalHera). Owns the super
// records, the union-find over record ids, the value-pair index, and
// the schema-matching predictor, and runs the compare-and-merge loop
// (Algorithm 2's body) to fixpoint.
//
// Runs are governed by the RunGuard in HeraOptions: the engine arms it
// at run start (ArmGuard) and honors its deadline, cancellation token,
// and resource ceilings — degrading (shedding weakest index pairs,
// deferring candidate groups) or stopping at an iteration boundary
// with a valid partial labeling, never dying. stats().outcome reports
// how the run ended. Fallible steps return Status so fault injection
// (common/failpoint.h) can prove every error path propagates cleanly.

#ifndef HERA_CORE_ENGINE_H_
#define HERA_CORE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/run_guard.h"
#include "common/statusor.h"
#include "common/union_find.h"
#include "core/options.h"
#include "index/value_pair_index.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "persist/checkpoint.h"
#include "record/record.h"
#include "record/super_record.h"
#include "schema/majority_vote.h"
#include "sim/similarity.h"
#include "simjoin/similarity_join.h"

namespace hera {

/// The similarity join a run with `options` uses, with the pool it runs
/// on. ResolutionEngine and ComputeSimilarValuePairs both build their
/// joiner with MakeJoinSetup.
struct JoinSetup {
  std::unique_ptr<SimilarityJoin> joiner;
  /// Worker pool the joiner runs on; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool;
};

/// Builds the joiner `options` select for metric `simv`. The prefix
/// filter indexes at the metric's own gram size (q = 2 for non-gram
/// metrics), so q != 2 gram metrics get the exact filters and encoded
/// kernels instead of silently verifying on the string path. Each join
/// call tokenizes its distinct texts afresh, in every round.
JoinSetup MakeJoinSetup(const HeraOptions& options,
                        const ValueSimilarity& simv);

/// \brief Stateful compare-and-merge resolver.
///
/// Usage (batch): AddRecords(all) -> ArmGuard() -> IndexNewRecords() ->
/// IterateToFixpoint() -> Labels(). Incremental callers interleave
/// further AddRecords/IndexNewRecords/IterateToFixpoint rounds; the
/// index, merges, and vote state persist across rounds. After a Status
/// failure (only possible via fault injection) the engine state is
/// consistent and a later IterateToFixpoint resumes correctly.
class ResolutionEngine {
 public:
  /// `simv` must be the resolved metric (never null).
  ResolutionEngine(const HeraOptions& options, ValueSimilarityPtr simv);

  /// Lifts records into singleton super records. Record ids must be
  /// dense and continue from NumRecords().
  void AddRecords(const std::vector<Record>& records);

  /// Starts the guard's clock and resets stats().outcome for a fresh
  /// run. Call once per run (per Resolve round, for incremental use);
  /// a no-deadline guard makes this a no-op reset.
  void ArmGuard();

  /// Joins the values of every record not yet indexed against the
  /// current live values (and among themselves) and inserts the
  /// resulting pairs. Returns the number of pairs added. Skips or
  /// truncates the join once the guard interrupts, and sheds pairs
  /// beyond its ceilings (weakest first); fails only via fault
  /// injection.
  StatusOr<size_t> IndexNewRecords();

  /// Seeds the index from precomputed join output instead of running
  /// the join (offline index construction). Marks every current record
  /// as indexed. Honors the guard's index ceilings.
  Status IndexPrecomputed(const std::vector<ValuePair>& pairs);

  /// Runs compare-and-merge passes until no merge happens, the
  /// options' iteration cap, or the guard interrupts — always leaving
  /// a valid labeling; stats().outcome says which. Accumulates stats.
  /// Fails only via fault injection, with the engine left consistent.
  Status IterateToFixpoint();

  /// Entity label per record id (the rid of its super record).
  std::vector<uint32_t> Labels();

  /// Live super records, keyed by rid.
  const std::map<uint32_t, SuperRecord>& active() const { return active_; }

  /// Moves the super records out (invalidates the engine's view; call
  /// last).
  std::map<uint32_t, SuperRecord> TakeSuperRecords() { return std::move(active_); }

  const HeraStats& stats() const { return stats_; }
  size_t NumRecords() const { return uf_.Size(); }
  const SchemaMatchingPredictor& predictor() const { return predictor_; }
  const RunGuard& guard() const { return guard_; }

  /// The run's observability context, or nullptr when
  /// options.collect_report is off (or HERA_OBS was compiled out).
  /// Lives as long as the engine; spans all incremental rounds.
  obs::RunTrace* trace() { return trace_.get(); }
  const obs::RunTrace* trace() const { return trace_.get(); }

  /// Stops the background timeline sampler (taking one final edge
  /// sample); no-op when none is running. Hera::Run calls this before
  /// building the report; incremental callers may leave it running
  /// across rounds. The sampler only observes — stopping or never
  /// starting it cannot change labels or merge_sequence.
  void StopTimelineSampler();

  /// The run's timeline sampler, or nullptr when
  /// options.timeline_interval_ms is 0 (or HERA_OBS was compiled out).
  obs::TimelineSampler* timeline_sampler() { return sampler_.get(); }

  /// Installs a checkpoint manager (borrowed; the caller keeps it alive
  /// for the engine's lifetime, nullptr detaches). With one installed,
  /// the engine snapshots after indexing, every checkpoint_every
  /// iterations, and at every IterateToFixpoint exit, and appends one
  /// WAL entry per completed pass.
  void SetCheckpointManager(persist::CheckpointManager* ckpt) { ckpt_ = ckpt; }

  /// Serializes the complete engine state at the current iteration
  /// boundary. Non-const only because union-find lookups path-compress.
  persist::EngineState ExportState();

  /// Replaces the engine state with a decoded snapshot. The options the
  /// engine was constructed with must fingerprint-match the snapshot's
  /// (the checkpoint layer enforces this).
  void RestoreState(const persist::EngineState& state);

  /// Re-applies one logged pass on top of the restored state — merges,
  /// votes, and counters exactly as the original pass, with no
  /// re-verification (so consumed failpoints cannot re-trip). Entries
  /// must be replayed in sequence order.
  Status ReplayWalEntry(const persist::WalEntry& entry);

 private:
  /// All (label, value) pairs of one super record.
  std::vector<LabeledValue> ValuesOf(const SuperRecord& sr) const;

  /// Keeps the most severe outcome seen this run.
  void RaiseOutcome(RunOutcome outcome);

  /// kTruncatedCancelled or kTruncatedDeadline per the guard's state.
  RunOutcome TruncationOutcome() const;

  /// Folds a guarded-join report into stats/outcome. `join_start_ms`
  /// is the tracer time at which the join call began; the report's
  /// join-relative worker spans are rebased onto it.
  void NoteJoinReport(const JoinReport& report, double join_start_ms);

  /// Inserts join output under the guard's index ceilings: sorts
  /// strongest-first when a ceiling is set so the weakest pairs are
  /// the ones shed, then refreshes shed counters and outcome.
  void AddPairsGuarded(std::vector<ValuePair> pairs);

  /// Snapshots index size/posting-length metrics into the trace
  /// (no-op when tracing is off).
  void HarvestIndexMetrics();

  /// Publishes this run's kernel.myers_calls delta from the
  /// process-global kernel counter (sim/kernel_dispatch.h), against the
  /// baseline captured at engine construction.
  void SyncKernelMetrics();

  HeraOptions options_;
  ValueSimilarityPtr simv_;
  std::unique_ptr<SimilarityJoin> joiner_;
  RunGuard guard_;

  /// Worker pool the joiner runs on (null when num_threads <= 1). The
  /// compare-and-merge loop never uses it.
  std::unique_ptr<ThreadPool> pool_;

  UnionFind uf_;
  std::map<uint32_t, SuperRecord> active_;
  ValuePairIndex index_;
  SchemaMatchingPredictor predictor_;
  HeraStats stats_;

  /// Records with ids >= indexed_watermark_ have not been joined yet.
  uint32_t indexed_watermark_ = 0;

  /// Posting entries shed inside guarded joins (the index's own shed
  /// counters are tracked separately and summed into stats_).
  size_t join_shed_posting_ = 0;

  /// Verifier invocations since the last ArmGuard, charged against
  /// guard().max_verifications(). Reset by ArmGuard (the budget is
  /// per-run, like a deadline) and never persisted, so a resumed run
  /// starts with a fresh budget and WAL replay costs nothing.
  size_t budget_spent_ = 0;

  /// True when the verification budget is configured and spent.
  bool BudgetExhausted() const {
    return guard_.max_verifications() > 0 &&
           budget_spent_ >= guard_.max_verifications();
  }

  double simplified_nodes_sum_ = 0.0;
  size_t simplified_nodes_count_ = 0;

  /// Durable checkpointing (borrowed; null = disabled).
  persist::CheckpointManager* ckpt_ = nullptr;

  /// Fixpoint-loop state, hoisted out of IterateToFixpoint so a guard
  /// truncation can be checkpointed and resumed mid-fixpoint. While
  /// `loop_needs_reset_` is set the three fields are stale and the next
  /// IterateToFixpoint starts a fresh rescan-everything loop; a guard
  /// or iteration-cap break leaves it clear, meaning the fields carry
  /// exactly the work an uninterrupted run would do next.
  bool loop_needs_reset_ = true;
  bool loop_first_pass_ = true;
  std::unordered_set<uint32_t> loop_dirty_;
  std::vector<std::pair<uint32_t, uint32_t>> loop_deferred_;

  /// Observability (null when disabled). The histogram/counter
  /// pointers are registered once in the constructor so hot-path
  /// updates skip the registry lock.
  std::shared_ptr<obs::RunTrace> trace_;
  obs::Histogram* h_verify_us_ = nullptr;      ///< Per-group verify latency.
  obs::Histogram* h_group_pairs_ = nullptr;    ///< Index entries per group.
  obs::Histogram* h_km_nodes_ = nullptr;       ///< |X'|+|Y'| fed to KM.
  obs::Histogram* h_km_matrix_ = nullptr;      ///< KM matrix side length.
  obs::Histogram* h_posting_len_ = nullptr;    ///< Index posting lengths.
  obs::Histogram* h_index_build_us_ = nullptr; ///< Per-round build time.
  obs::Histogram* h_iteration_us_ = nullptr;   ///< Per-pass duration.
  obs::Histogram* h_worker_busy_us_ = nullptr; ///< Per-worker busy time.
  /// Atomic mirrors of stats_ fields the sampler thread may not read
  /// directly (stats_ is controller-thread-only). Incremented at the
  /// same sites as their stats_ counterparts, including WAL replay.
  obs::Counter* c_merges_ = nullptr;
  obs::Counter* c_verified_groups_ = nullptr;
  /// Progressive-mode quality family (quality.frontier_*): groups that
  /// entered best-first ordering, groups verified under it, and groups
  /// deferred unverified at a budget/guard cut. Together with the
  /// sampled `merges` track they yield the recall-vs-verified-pairs
  /// curve (merges found per verification spent).
  obs::Counter* c_frontier_groups_ = nullptr;
  obs::Counter* c_frontier_verified_ = nullptr;
  obs::Counter* c_frontier_deferred_ = nullptr;
  /// Process-global kernel counter values at engine construction; the
  /// kernel.myers_calls report counter carries this engine's delta only.
  KernelCounterSnapshot kernel_counters_base_;

  /// Background timeline sampler (null unless timeline_interval_ms is
  /// set). Declared after trace_: its probes and clock read through
  /// trace_ and the caches, so it must be destroyed first.
  std::unique_ptr<obs::TimelineSampler> sampler_;
};

}  // namespace hera

#endif  // HERA_CORE_ENGINE_H_
