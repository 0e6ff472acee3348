#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/verifier.h"
#include "index/bounds.h"
#include "obs/metrics.h"
#include "sim/kernel.h"
#include "sim/metrics.h"

namespace hera {

StatusOr<ValueSimilarityPtr> ResolveMetric(const HeraOptions& options) {
  HERA_RETURN_NOT_OK(ValidateOptions(options));
  if (options.similarity) return options.similarity;
  ValueSimilarityPtr simv = MakeSimilarity(options.metric);
  if (!simv) {
    return Status::InvalidArgument("unknown similarity metric: " +
                                   options.metric);
  }
  return simv;
}

void AppendRecordValues(const SuperRecord& sr,
                        std::vector<LabeledValue>* out) {
  for (uint32_t f = 0; f < sr.num_fields(); ++f) {
    for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
      out->push_back({ValueLabel{sr.rid(), f, v}, sr.field(f).value(v).value});
    }
  }
}

StatusOr<std::unique_ptr<persist::CheckpointManager>> RecoverCheckpoint(
    const persist::CheckpointManager::Config& config,
    ResolutionEngine* engine, bool arm_guard) {
  HERA_ASSIGN_OR_RETURN(
      persist::CheckpointManager::Recovered recovered,
      persist::CheckpointManager::Recover(config, engine->trace()));
  engine->RestoreState(recovered.state);
  if (arm_guard) engine->ArmGuard();
  for (const persist::WalEntry& entry : recovered.wal) {
    HERA_RETURN_NOT_OK(engine->ReplayWalEntry(entry));
  }
  HERA_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::CheckpointManager> ckpt,
      persist::CheckpointManager::Open(config, engine->trace()));
  engine->SetCheckpointManager(ckpt.get());
  // Re-snapshot the recovered state as a fresh epoch: recovery never
  // appends after a (possibly torn) WAL tail.
  HERA_RETURN_NOT_OK(ckpt->WriteSnapshot(engine->ExportState()));
  return ckpt;
}

JoinSetup MakeJoinSetup(const HeraOptions& options,
                        const ValueSimilarity& simv) {
  JoinSetup setup;
  if (options.use_prefix_filter_join) {
    const int metric_q = GramMetricSize(simv.Name());
    setup.joiner =
        std::make_unique<PrefixFilterJoin>(metric_q > 0 ? metric_q : 2);
  } else {
    setup.joiner = std::make_unique<NestedLoopJoin>();
  }
  if (options.num_threads > 1) {
    setup.pool = std::make_unique<ThreadPool>(options.num_threads);
    setup.joiner->SetExecutor(setup.pool.get());
  }
  return setup;
}

ResolutionEngine::ResolutionEngine(const HeraOptions& options,
                                   ValueSimilarityPtr simv)
    : options_(options),
      simv_(std::move(simv)),
      guard_(options.guard),
      predictor_(options.vote_prior_p, options.vote_rho) {
  assert(simv_ != nullptr);
  JoinSetup join = MakeJoinSetup(options_, *simv_);
  joiner_ = std::move(join.joiner);
  pool_ = std::move(join.pool);
  index_.SetCeilings(guard_.max_index_pairs(), guard_.max_posting_list());
#ifndef HERA_DISABLE_OBS
  // A timeline interval implies report collection: the samples land in
  // the report's timeline section.
  if (options_.collect_report || options_.timeline_interval_ms > 0) {
    trace_ = std::make_shared<obs::RunTrace>(options_.timeline_capacity);
    obs::MetricsRegistry& m = trace_->metrics();
    // 1us .. ~4.2s in x4 steps.
    h_verify_us_ = m.GetHistogram("verify.latency_us",
                                  obs::Histogram::ExponentialBounds(1.0, 4.0, 12));
    h_group_pairs_ = m.GetHistogram(
        "candidate.group_pairs", obs::Histogram::ExponentialBounds(1.0, 4.0, 8));
    h_km_nodes_ = m.GetHistogram("verify.simplified_nodes",
                                 obs::Histogram::ExponentialBounds(2.0, 2.0, 8));
    h_km_matrix_ = m.GetHistogram("verify.km_matrix_n",
                                  obs::Histogram::ExponentialBounds(1.0, 2.0, 8));
    h_posting_len_ = m.GetHistogram(
        "index.posting_list_len", obs::Histogram::ExponentialBounds(1.0, 4.0, 10));
    h_index_build_us_ = m.GetHistogram(
        "index.build_us", obs::Histogram::ExponentialBounds(16.0, 4.0, 12));
    h_iteration_us_ = m.GetHistogram(
        "iteration.duration_us", obs::Histogram::ExponentialBounds(16.0, 4.0, 12));
    h_worker_busy_us_ = m.GetHistogram(
        "parallel.worker_busy_us", obs::Histogram::ExponentialBounds(16.0, 4.0, 12));
    // Gauges land in the RunReport, so the thread count a run used is
    // recorded alongside its timings.
    m.GetGauge("parallel.num_threads")
        ->Set(static_cast<double>(pool_ != nullptr ? pool_->size() : 1));
    // Atomic mirrors for the sampler thread: stats_ itself is
    // controller-thread-only.
    c_merges_ = m.GetCounter("engine.merges");
    c_verified_groups_ = m.GetCounter("engine.verified_groups");
    // Progressive-mode quality family; stays at zero for
    // non-progressive runs (docs/observability.md).
    c_frontier_groups_ = m.GetCounter("quality.frontier_groups");
    c_frontier_verified_ = m.GetCounter("quality.frontier_verified");
    c_frontier_deferred_ = m.GetCounter("quality.frontier_deferred");
    // kernel.myers_calls carries this run's delta of the process-global
    // total.
    kernel_counters_base_ = KernelCountersNow();
    joiner_->SetCollectWorkerSpans(true);
    trace_->SetTimelineIntervalMs(
        static_cast<double>(options_.timeline_interval_ms));
    if (options_.timeline_interval_ms > 0) {
      obs::TimelineSampler::Options sopts;
      sopts.interval_ms = static_cast<double>(options_.timeline_interval_ms);
      obs::RunTrace* trace = trace_.get();
      sampler_ = std::make_unique<obs::TimelineSampler>(
          sopts, [trace] { return trace->NowMs(); }, &trace_->timeline());
      // Every probe is a relaxed atomic load — read-only with respect
      // to resolution state.
      obs::Counter* c_merges = c_merges_;
      sampler_->AddProbe("merges",
                         [c_merges] { return static_cast<double>(c_merges->value()); });
      obs::Counter* c_verified = c_verified_groups_;
      sampler_->AddProbe("verified_groups", [c_verified] {
        return static_cast<double>(c_verified->value());
      });
      obs::Counter* c_emitted = m.GetCounter("simjoin.emitted");
      sampler_->AddProbe("pairs_emitted", [c_emitted] {
        return static_cast<double>(c_emitted->value());
      });
      obs::Gauge* g_index = m.GetGauge("index.size");
      sampler_->AddProbe("index_size", [g_index] { return g_index->value(); });
      if (options_.progressive) {
        // Paired with the `merges` track above this samples the
        // recall-vs-verified-pairs curve: merges (recall proxy, and
        // exact recall once labels are scored) as a function of
        // verification spend.
        obs::Counter* c_fv = c_frontier_verified_;
        sampler_->AddProbe("frontier_verified", [c_fv] {
          return static_cast<double>(c_fv->value());
        });
      }
    }
  }
#endif
}

void ResolutionEngine::AddRecords(const std::vector<Record>& records) {
  size_t new_total = uf_.Size() + records.size();
  // UnionFind::Reset would lose state; grow by re-adding. UnionFind has
  // no grow API, so rebuild preserving existing assignments.
  UnionFind grown(new_total);
  for (uint32_t r = 0; r < uf_.Size(); ++r) {
    grown.Union(uf_.Find(r), r);
  }
  uf_ = std::move(grown);
  for (const Record& r : records) {
    assert(r.id() < new_total);
    active_.emplace(r.id(), SuperRecord::FromRecord(r));
  }
}

void ResolutionEngine::ArmGuard() {
  guard_.Arm();
  // The verification budget, like the deadline, is granted afresh per
  // run: a resumed or incremental round may spend max_verifications()
  // again from zero.
  budget_spent_ = 0;
  // Idempotent across incremental rounds: the sampler keeps running
  // between Resolve calls and Start() is a no-op while it does.
  if (sampler_ != nullptr) sampler_->Start();
  stats_.outcome = RunOutcome::kCompleted;
  // A restored run carries its shed counters across the resume; the
  // degradation they represent is permanent (the shed pairs are gone),
  // so the fresh outcome must keep reflecting it.
  if (stats_.shed_index_pairs > 0 || stats_.shed_posting_entries > 0) {
    RaiseOutcome(RunOutcome::kDegraded);
  }
}

void ResolutionEngine::RaiseOutcome(RunOutcome outcome) {
  if (static_cast<int>(outcome) > static_cast<int>(stats_.outcome)) {
    stats_.outcome = outcome;
  }
}

RunOutcome ResolutionEngine::TruncationOutcome() const {
  return guard_.Cancelled() ? RunOutcome::kTruncatedCancelled
                            : RunOutcome::kTruncatedDeadline;
}

void ResolutionEngine::NoteGuardTruncation(const char* event) {
  RaiseOutcome(TruncationOutcome());
  if (trace_) {
    trace_->tracer().Event(event,
                           guard_.Cancelled() ? "cancelled" : "deadline");
  }
}

void ResolutionEngine::StopTimelineSampler() {
  if (sampler_ != nullptr) sampler_->Stop();
}

void ResolutionEngine::NoteJoinReport(const JoinReport& report,
                                      double join_start_ms) {
  if (trace_) {
    obs::MetricsRegistry& m = trace_->metrics();
    m.GetCounter("simjoin.candidates")->Inc(report.candidates);
    m.GetCounter("simjoin.verified")->Inc(report.verified);
    m.GetCounter("simjoin.emitted")->Inc(report.emitted);
    m.GetCounter("simjoin.pruned_prefix")->Inc(report.pruned_prefix);
    m.GetCounter("simjoin.pruned_length")->Inc(report.pruned_length);
    m.GetCounter("simjoin.pruned_positional")->Inc(report.pruned_positional);
    m.GetCounter("simjoin.distinct_values")->Inc(report.distinct_values);
    m.GetCounter("simjoin.distinct_emitted")->Inc(report.distinct_emitted);
    if (h_worker_busy_us_ != nullptr) {
      for (double us : report.worker_busy_us) h_worker_busy_us_->Observe(us);
    }
    // Rebase the join's call-relative chunk spans onto the tracer
    // clock. Recorded post-hoc on the controller thread — workers
    // never touch the tracer.
    for (const JoinReport::WorkerSpan& ws : report.worker_spans) {
      trace_->AddWorkerSpan({ws.phase, ws.worker, ws.chunk,
                             join_start_ms + ws.start_us / 1000.0,
                             ws.dur_us / 1000.0,
                             trace_->tracer().iteration()});
    }
  }
  if (report.shed_candidates > 0) {
    stats_.shed_join_candidates += report.shed_candidates;
    if (trace_) {
      trace_->tracer().Event("shed.candidates", "join", report.shed_candidates);
    }
  }
  if (report.truncated) {
    stats_.join_truncated = true;
    NoteGuardTruncation("join.truncated");
  }
  if (report.shed_posting_entries > 0) {
    join_shed_posting_ += report.shed_posting_entries;
    RaiseOutcome(RunOutcome::kDegraded);
    if (trace_) {
      trace_->tracer().Event("shed.posting", "join", report.shed_posting_entries);
    }
  }
}

void ResolutionEngine::AddPairsGuarded(std::vector<ValuePair> pairs) {
  if (guard_.max_index_pairs() > 0 || guard_.max_posting_list() > 0) {
    std::sort(pairs.begin(), pairs.end(),
              [](const ValuePair& a, const ValuePair& b) { return a.sim > b.sim; });
  }
  const size_t idx_shed_before = index_.shed_pairs();
  const size_t idx_posting_before = index_.shed_posting_entries();
  index_.AddPairs(pairs);
  stats_.shed_index_pairs = index_.shed_pairs();
  stats_.shed_posting_entries =
      join_shed_posting_ + index_.shed_posting_entries();
  if (stats_.shed_index_pairs > 0 || stats_.shed_posting_entries > 0) {
    RaiseOutcome(RunOutcome::kDegraded);
  }
  if (trace_) {
    if (index_.shed_pairs() > idx_shed_before) {
      trace_->tracer().Event("shed.index_pairs", "ceiling",
                             index_.shed_pairs() - idx_shed_before);
    }
    if (index_.shed_posting_entries() > idx_posting_before) {
      trace_->tracer().Event("shed.posting", "index",
                             index_.shed_posting_entries() - idx_posting_before);
    }
  }
}

void ResolutionEngine::SyncKernelMetrics() {
  if (!trace_) return;
  // The kernel counters are process-global (hot loops cannot afford
  // per-engine indirection); publish this engine's delta against the
  // construction-time baseline, catching the counters up rather than
  // double counting across rounds.
  KernelCounterSnapshot now = KernelCountersNow();
  obs::Counter* myers = trace_->metrics().GetCounter("kernel.myers_calls");
  uint64_t myers_delta = now.myers_calls - kernel_counters_base_.myers_calls;
  if (myers_delta > myers->value()) myers->Inc(myers_delta - myers->value());
}

void ResolutionEngine::HarvestIndexMetrics() {
  if (!trace_) return;
  trace_->metrics().GetGauge("index.size")->Set(static_cast<double>(index_.size()));
  trace_->metrics().GetGauge("index.heap_bytes")
      ->Set(static_cast<double>(index_.HeapBytes()));
  // Snapshot the posting-length distribution (one observation per live
  // posting list per indexing round).
  index_.ForEachPostingLength([this](uint32_t rid, size_t len) {
    (void)rid;
    h_posting_len_->Observe(static_cast<double>(len));
  });
}

StatusOr<size_t> ResolutionEngine::IndexNewRecords() {
  // ScopedTimer flushes on every exit path, including injected
  // failures, so index_build_ms now also covers aborted builds.
  obs::ScopedTimer timer(&stats_.index_build_ms, h_index_build_us_);
  auto span = obs::StartSpan(trace_.get(), "index.build");
  HERA_FAILPOINT("index.build");
  size_t before = index_.size();
  if (guard_.Interrupted()) {
    // Out of budget before the join even starts: leave the index as is
    // (records are marked indexed so a later round won't re-join them
    // against a half-processed watermark).
    stats_.join_truncated = true;
    NoteGuardTruncation("join.truncated");
    indexed_watermark_ = static_cast<uint32_t>(uf_.Size());
    stats_.index_size = index_.size();
    loop_needs_reset_ = true;
    if (ckpt_ != nullptr) {
      HERA_RETURN_NOT_OK(ckpt_->WriteSnapshot(ExportState()));
    }
    return size_t{0};
  }
  std::vector<LabeledValue> fresh, existing;
  for (const auto& [rid, sr] : active_) {
    AppendRecordValues(sr, rid >= indexed_watermark_ ? &fresh : &existing);
  }
  std::vector<ValuePair> joined;
  JoinReport report;
  {
    auto join_span = obs::StartSpan(trace_.get(), "join.self");
    double join_t0 = trace_ ? trace_->tracer().ElapsedMs() : 0.0;
    HERA_RETURN_NOT_OK(
        joiner_->Join(fresh, *simv_, options_.xi, guard_, &joined, &report));
    join_span.End();
    NoteJoinReport(report, join_t0);
  }
  AddPairsGuarded(std::move(joined));
  if (!existing.empty() && !guard_.Interrupted()) {
    auto join_span = obs::StartSpan(trace_.get(), "join.ab");
    double join_t0 = trace_ ? trace_->tracer().ElapsedMs() : 0.0;
    HERA_RETURN_NOT_OK(joiner_->JoinAB(fresh, existing, *simv_, options_.xi,
                                       guard_, &joined, &report));
    join_span.End();
    NoteJoinReport(report, join_t0);
    AddPairsGuarded(std::move(joined));
  }
  indexed_watermark_ = static_cast<uint32_t>(uf_.Size());
  stats_.index_size = index_.size();
  HarvestIndexMetrics();
  SyncKernelMetrics();
  // New pairs invalidate any carried loop state: the next fixpoint loop
  // must rescan every group.
  loop_needs_reset_ = true;
  if (ckpt_ != nullptr) {
    HERA_RETURN_NOT_OK(ckpt_->WriteSnapshot(ExportState()));
  }
  return index_.size() - before;
}

Status ResolutionEngine::IndexPrecomputed(const std::vector<ValuePair>& pairs) {
  obs::ScopedTimer timer(&stats_.index_build_ms, h_index_build_us_);
  auto span = obs::StartSpan(trace_.get(), "index.build");
  HERA_FAILPOINT("index.build");
  AddPairsGuarded(pairs);
  indexed_watermark_ = static_cast<uint32_t>(uf_.Size());
  stats_.index_size = index_.size();
  HarvestIndexMetrics();
  loop_needs_reset_ = true;
  if (ckpt_ != nullptr) {
    HERA_RETURN_NOT_OK(ckpt_->WriteSnapshot(ExportState()));
  }
  return Status::OK();
}

Status ResolutionEngine::IterateToFixpoint() {
  obs::ScopedTimer total_timer(&stats_.total_ms);
  auto resolve_span = obs::StartSpan(trace_.get(), "resolve");
  InstanceBasedVerifier verifier(
      options_.enable_schema_voting ? &predictor_ : nullptr);

  // Dirty tracking: after the first pass, a group whose two records
  // were both untouched by merges cannot decide differently than it
  // already did (its pairs and the field counts are unchanged), so
  // only groups touching a recently merged record are re-examined.
  // The first-pass flag, dirty set, and deferral queue (groups pushed
  // past the candidate ceiling, owed an examination regardless of
  // dirtiness) are members so a truncated loop can be checkpointed and
  // resumed exactly where it stopped; see their declaration.
  if (loop_needs_reset_) {
    loop_first_pass_ = true;
    loop_dirty_.clear();
    loop_deferred_.clear();
    loop_needs_reset_ = false;
  }
  // Set when the loop stops before the fixpoint (guard or iteration
  // cap): the carried loop state stays live for a resumed run.
  bool truncated_break = false;

  // Group-visit state, reused by every visit of every pass so that a
  // visit allocates nothing once warm: the group's pairs, the bounds'
  // per-field marks, V' for direct merges, each rid's field count, and
  // the records merged this pass.
  std::vector<IndexedPair> group;
  GroupBounds bounds;
  std::vector<IndexedPair> refined;
  std::vector<uint32_t> num_fields;
  std::vector<uint8_t> merged_this_pass;

  while (loop_first_pass_ || !loop_dirty_.empty() || !loop_deferred_.empty()) {
    // Safe points: state is always a valid labeling between passes, so
    // deadline expiry / cancellation stops here and the caller gets
    // the current partial result.
    if (guard_.Interrupted()) {
      NoteGuardTruncation("truncated");
      truncated_break = true;
      break;
    }
    if (stats_.iterations >= options_.max_iterations) {
      HERA_LOG(Warning) << "IterateToFixpoint stopped at max_iterations="
                        << options_.max_iterations
                        << " before reaching a fixpoint; labeling is valid "
                           "but further merges may have been possible";
      RaiseOutcome(RunOutcome::kIterationCap);
      if (trace_) {
        trace_->tracer().Event("iteration_cap", "", options_.max_iterations);
      }
      truncated_break = true;
      break;
    }
    // An iteration boundary is the durable unit: snapshot when due,
    // then log the pass about to run as one WAL entry at its end.
    if (ckpt_ != nullptr && ckpt_->SnapshotDue(stats_.iterations)) {
      // Fold the loop time so far into total_ms so the persisted
      // elapsed time is accurate — a resumed run stitches its timeline
      // onto index_build_ms + total_ms from the snapshot.
      total_timer.Lap();
      HERA_RETURN_NOT_OK(ckpt_->WriteSnapshot(ExportState()));
    }
    // Until this pass completes (including its WAL append), the carried
    // loop state is mid-mutation; a failure here forces a full rescan.
    loop_needs_reset_ = true;
    ++stats_.iterations;
    const size_t merges_before = stats_.merges;
    // The pass's counter deltas accumulate in its WAL entry: the
    // iteration row, the WAL append and stats_ all read them from here.
    persist::WalEntry pass;
    pass.iteration = stats_.iterations;
    Timer pass_timer;
    auto pass_span = obs::StartSpan(trace_.get(), "iteration");
    if (trace_) {
      trace_->tracer().SetIteration(static_cast<int64_t>(stats_.iterations));
    }

    // Snapshot the (rid1, rid2) groups in index order. Following the
    // paper's iteration semantics (Fig 8), each record participates in
    // at most one merge per pass; groups touching a record merged
    // earlier in the pass are deferred to the next iteration, where the
    // index groups have been combined (Proposition 3 guarantees no
    // similar value pair is lost).
    std::vector<std::pair<uint32_t, uint32_t>> groups =
        loop_first_pass_
            ? index_.GroupKeys()
            : index_.GroupKeysTouching(std::vector<uint32_t>(
                  loop_dirty_.begin(), loop_dirty_.end()));
    // Re-queue the carried deferrals (their rids may no longer be
    // dirty; they are owed an examination regardless), each once.
    if (!loop_deferred_.empty()) {
      const size_t listed = groups.size();
      std::unordered_set<uint64_t> queued;
      for (const auto& g : loop_deferred_) {
        const bool in_index_pass = std::binary_search(
            groups.begin(), groups.begin() + static_cast<std::ptrdiff_t>(listed), g);
        const uint64_t key = (static_cast<uint64_t>(g.first) << 32) | g.second;
        if (!in_index_pass && queued.insert(key).second) groups.push_back(g);
      }
    }
    loop_deferred_.clear();
    loop_first_pass_ = false;
    loop_dirty_.clear();

    // Candidate ceiling: examine at most the cap this pass and carry
    // the tail into the next one (deferral, not loss). Progress is
    // guaranteed: a no-merge pass consumes `cap` queued groups.
    const size_t cap = guard_.max_candidates_per_iteration();
    if (cap > 0 && groups.size() > cap) {
      loop_deferred_.assign(groups.begin() + cap, groups.end());
      pass.deferred_groups = loop_deferred_.size();
      if (trace_) {
        trace_->tracer().Event("defer.candidates", "ceiling",
                               loop_deferred_.size());
      }
      groups.resize(cap);
    }

    // Field counts are taken at pass start. A visit reads them only for
    // records not merged yet this pass, except for a carried deferral
    // whose rid was absorbed into a record merged this pass; the merge
    // step below refreshes the survivor's count for that case.
    num_fields.assign(uf_.Size(), 0);
    for (const auto& [rid, sr] : active_) {
      num_fields[rid] = static_cast<uint32_t>(sr.num_fields());
    }
    merged_this_pass.assign(uf_.Size(), 0);

    // Best-first frontier (progressive mode): when the run is governed
    // — a verification budget, deadline, or cancellation token could
    // cut it short — the pass walks its verification-needing groups in
    // descending similarity-upper-bound order, so whatever a cut
    // leaves unverified is the least promising work. Groups the bounds
    // decide for free (prune, direct merge, empty, dead) go first in
    // canonical order: they cost no budget, and their merges can only
    // sharpen later decisions. Ungoverned progressive passes keep pure
    // canonical order — that is what makes an unbudgeted progressive
    // run byte-identical (labels and merge_sequence) to the default.
    const bool frontier_active =
        options_.progressive &&
        (guard_.max_verifications() > 0 || guard_.watched());
    std::vector<size_t> order;
    if (frontier_active && !groups.empty()) {
      // One serial pre-pass bounds every group against the pass-start
      // state, keeping only its upper bound and whether it needs
      // verification; the pass below recomputes pairs and bounds.
      std::vector<double> upper(groups.size(), 0.0);
      std::vector<size_t> free_list, verify_list;
      free_list.reserve(groups.size());
      for (size_t k = 0; k < groups.size(); ++k) {
        uint32_t i = uf_.Find(groups[k].first);
        uint32_t j = uf_.Find(groups[k].second);
        if (i > j) std::swap(i, j);
        bool needs_verify = false;
        if (i != j) {
          // Roots are live records.
          assert(active_.count(i) == 1 && active_.count(j) == 1);
          index_.PairsInto(i, j, &group);
          if (!group.empty()) {
            upper[k] = bounds.Upper(group, num_fields[i], num_fields[j],
                                    options_.tight_bounds);
            needs_verify =
                upper[k] >= options_.delta &&
                upper[k] != bounds.Lower(group, num_fields[i], num_fields[j]);
          }
        }
        (needs_verify ? verify_list : free_list).push_back(k);
      }
      std::sort(verify_list.begin(), verify_list.end(),
                [&](size_t a, size_t b) {
                  if (upper[a] != upper[b]) return upper[a] > upper[b];
                  return a < b;  // Canonical order breaks ties.
                });
      pass.frontier_groups = verify_list.size();
      if (c_frontier_groups_ != nullptr) {
        c_frontier_groups_->Inc(verify_list.size());
      }
      order = std::move(free_list);
      order.insert(order.end(), verify_list.begin(), verify_list.end());
    } else {
      order.resize(groups.size());
      for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    }

    // First budget/guard cut this pass (null = none): names the cause
    // for the observer, trace, and outcome.
    const char* cut_reason = nullptr;
    bool cut_is_budget = false;

    // The paper's compare-and-merge loop (Algorithm 2), in frontier
    // order (canonical unless progressive governance reordered it
    // above).
    for (size_t ok = 0; ok < order.size(); ++ok) {
      const size_t gk = order[ok];
      auto [g1, g2] = groups[gk];
      if (merged_this_pass[g1] || merged_this_pass[g2]) continue;
      uint32_t i = uf_.Find(g1), j = uf_.Find(g2);
      if (i == j) continue;  // Already merged (earlier pass).
      if (i > j) std::swap(i, j);

      index_.PairsInto(i, j, &group);
      if (group.empty()) continue;  // Deleted by an earlier merge.
      if (h_group_pairs_ != nullptr) {
        h_group_pairs_->Observe(static_cast<double>(group.size()));
      }

      // Candidate generation: bound the similarity (Algorithm 1), Up
      // first, since most groups stop there.
      const size_t nf_i = num_fields[i], nf_j = num_fields[j];
      const double upper =
          bounds.Upper(group, nf_i, nf_j, options_.tight_bounds);
      if (upper < options_.delta) {
        ++pass.pruned;
        continue;
      }
      const double lower = bounds.Lower(group, nf_i, nf_j);
      auto it_i = active_.find(i);
      auto it_j = active_.find(j);
      assert(it_i != active_.end() && it_j != active_.end());
      // The merge this group would make, with the predictions it
      // records. Predictions are only ever recorded on paths that end
      // in a merge, so the merge step records them.
      persist::WalMerge merge;
      merge.i = i;
      merge.j = j;
      if (upper == lower) {
        // Exact: similarity known without verification (the R' set).
        ++pass.direct;
        bounds.Refine(group, &refined);
        merge.matching.reserve(refined.size());
        for (const IndexedPair& p : refined) {
          merge.matching.push_back({p.a.fid, p.b.fid, p.sim});
          if (options_.enable_schema_voting) {
            // R' matchings are exact field matchings (Definition 4) and
            // carry the same — in fact stronger — evidence as verified
            // candidates, so they vote too. (Extension of Algorithm 2,
            // which only feeds verified candidates into the vote.)
            merge.predictions.emplace_back(
                it_i->second.field(p.a.fid).value(p.a.vid).origin,
                it_j->second.field(p.b.fid).value(p.b.vid).origin);
          }
        }
      } else {
        // Verification (Section IV). A spent verification budget — or,
        // in progressive mode, a guard trip — defers the group
        // unverified into the checkpointable queue instead of paying
        // for it: the orderly frontier drain. Bound-decided groups
        // above still resolve (they are free); only budgeted work
        // stops. Non-progressive runs keep the historical behavior for
        // deadline/cancel (stop at the next pass boundary).
        const bool budget_out = BudgetExhausted();
        if (budget_out || (frontier_active && guard_.Interrupted())) {
          loop_deferred_.push_back(groups[gk]);
          ++pass.budget_deferred;
          if (c_frontier_deferred_ != nullptr) c_frontier_deferred_->Inc();
          if (cut_reason == nullptr) {
            cut_is_budget = budget_out;
            cut_reason = budget_out           ? "budget"
                         : guard_.Cancelled() ? "cancelled"
                                              : "deadline";
            guard_.NotifyBudgetCut(cut_reason);
            if (trace_) trace_->tracer().Event("frontier.cut", cut_reason);
          }
          continue;
        }
        HERA_FAILPOINT("verify.km");
        ++pass.candidates;
        ++pass.comparisons;
        ++budget_spent_;
        // The sampler reads these mirrors while the pass runs, so they
        // tick here rather than when the pass's counters are folded.
        if (c_verified_groups_ != nullptr) c_verified_groups_->Inc();
        if (options_.progressive && c_frontier_verified_ != nullptr) {
          c_frontier_verified_->Inc();
        }
        VerifyResult vr;
        if (h_verify_us_ != nullptr) {
          obs::ScopedTimer verify_timer(nullptr, h_verify_us_);
          vr = verifier.Verify(it_i->second, it_j->second, group);
          verify_timer.Stop();
          if (vr.simplified_nodes > 0) {
            h_km_nodes_->Observe(static_cast<double>(vr.simplified_nodes));
          }
          if (vr.km_size > 0) {
            h_km_matrix_->Observe(static_cast<double>(vr.km_size));
          }
        } else {
          vr = verifier.Verify(it_i->second, it_j->second, group);
        }
        if (vr.simplified_nodes > 0) {
          pass.simplified_sum += static_cast<double>(vr.simplified_nodes);
          ++pass.simplified_count;
        }
        if (vr.sim < options_.delta) continue;
        merge.matching = std::move(vr.matching);
        if (options_.enable_schema_voting) {
          merge.predictions = std::move(vr.predictions);
        }
      }

      // Merge (Section III-B2). The failpoint sits before the first
      // mutation, so an injected failure leaves the engine fully
      // consistent; it lives here and not in the merge step, so WAL
      // replay can never trip it again.
      HERA_FAILPOINT("engine.merge");
      HERA_RETURN_NOT_OK(ApplyPassMerge(merge));
      merged_this_pass[i] = merged_this_pass[j] = 1;
      num_fields[i] = static_cast<uint32_t>(it_i->second.num_fields());
      if (ckpt_ != nullptr) pass.merges.push_back(std::move(merge));
    }

    pass_span.End();
    AddPassCounters(pass);
    if (trace_) {
      obs::RunTrace::IterationRow row;
      row.iteration = stats_.iterations;
      row.groups = groups.size();
      row.pruned = pass.pruned;
      row.direct = pass.direct;
      row.verified = pass.candidates;
      row.merges = stats_.merges - merges_before;
      row.deferred = pass.deferred_groups;
      row.ms = pass_timer.ElapsedMillis();
      row.t_ms = trace_->NowMs();
      trace_->AddIteration(row);
      h_iteration_us_->Observe(row.ms * 1000.0);
    }
    if (ckpt_ != nullptr) {
      pass.deferred_after = loop_deferred_;
      HERA_RETURN_NOT_OK(ckpt_->AppendWal(std::move(pass)));
    }
    // Pass (and its WAL record) complete: the loop state is a valid
    // iteration boundary again.
    loop_needs_reset_ = false;
    if (cut_reason != nullptr) {
      // Budget/guard cut mid-pass: the pass is complete and durably
      // logged (its deferred groups ride in deferred_after), so stop
      // at this iteration boundary with a truncated outcome. The
      // final snapshot below makes the cut resumable; a resumed run
      // drains the deferred queue and converges to the same labels as
      // an uninterrupted one.
      RaiseOutcome(cut_is_budget ? RunOutcome::kTruncatedBudget
                                 : TruncationOutcome());
      if (trace_) trace_->tracer().Event("truncated", cut_reason);
      truncated_break = true;
      break;
    }
  }

  // A clean fixpoint exit invalidates the loop state on purpose: a
  // later direct IterateToFixpoint call rescans everything (the
  // historical contract incremental rounds rely on). Truncated exits
  // keep it live so a resumed run continues exactly where this one
  // stopped.
  if (!truncated_break) loop_needs_reset_ = true;

  if (trace_) {
    trace_->tracer().SetIteration(-1);
    // PairsFor calls are cumulative across rounds; bring the counter up
    // to date rather than double counting.
    obs::Counter* probes = trace_->metrics().GetCounter("index.probes");
    uint64_t seen = index_.probe_count();
    if (seen > probes->value()) probes->Inc(seen - probes->value());
    SyncKernelMetrics();
  }

  // Final snapshot: every exit (fixpoint, cap, guard truncation) leaves
  // the directory resumable from exactly this state. Stop (not Lap) the
  // run timer first so the persisted elapsed time equals the reported
  // stats.total_ms exactly — a resumed timeline continues from
  // index_build_ms + total_ms, and the two must agree.
  if (ckpt_ != nullptr) {
    total_timer.Stop();
    HERA_RETURN_NOT_OK(ckpt_->WriteSnapshot(ExportState()));
  }
  return Status::OK();
}

std::vector<uint32_t> ResolutionEngine::Labels() {
  std::vector<uint32_t> labels(uf_.Size());
  for (uint32_t r = 0; r < labels.size(); ++r) labels[r] = uf_.Find(r);
  return labels;
}

persist::EngineState ResolutionEngine::ExportState() {
  persist::EngineState s;
  s.num_records = uf_.Size();
  s.labels = Labels();
  s.super_records.reserve(active_.size());
  for (const auto& [rid, sr] : active_) {
    (void)rid;
    s.super_records.push_back(sr);
  }
  s.index_pairs = index_.Dump();
  s.index_next_pid = index_.next_pid();
  s.index_probe_count = index_.probe_count();
  s.index_shed_pairs = index_.shed_pairs();
  s.index_shed_posting = index_.shed_posting_entries();
  s.votes = predictor_.ExportVotes();
  s.num_predictions = predictor_.num_predictions();
  s.stats = stats_;
  s.indexed_watermark = indexed_watermark_;
  s.join_shed_posting = join_shed_posting_;
  s.simplified_nodes_sum = simplified_nodes_sum_;
  s.simplified_nodes_count = simplified_nodes_count_;
  if (!loop_needs_reset_) {
    s.loop_first_pass = loop_first_pass_;
    s.loop_dirty.assign(loop_dirty_.begin(), loop_dirty_.end());
    std::sort(s.loop_dirty.begin(), s.loop_dirty.end());
    s.loop_deferred = loop_deferred_;
  }
  // Else: the carried loop state is stale (fixpoint reached, or new
  // records were indexed); export a fresh rescan-everything loop, which
  // is exactly what the next IterateToFixpoint would start with.
  return s;
}

void ResolutionEngine::RestoreState(const persist::EngineState& state) {
  UnionFind restored(state.num_records);
  for (uint32_t r = 0; r < state.labels.size(); ++r) {
    restored.Union(state.labels[r], r);
  }
  uf_ = std::move(restored);
  active_.clear();
  for (const SuperRecord& sr : state.super_records) {
    active_.emplace(sr.rid(), sr);
  }
  index_.RestoreState(state.index_pairs, state.index_next_pid,
                      static_cast<size_t>(state.index_shed_pairs),
                      static_cast<size_t>(state.index_shed_posting),
                      state.index_probe_count);
  predictor_.RestoreVotes(state.votes,
                          static_cast<size_t>(state.num_predictions));
  stats_ = state.stats;
  // Stitch the resumed run's observability clock onto the pre-crash
  // one: the restored stats carry the milliseconds already spent, so
  // timeline samples and iteration rows continue a monotone series
  // across the resume. Tracer spans stay process-relative by design.
  if (trace_) {
    trace_->SetTimeBaseMs(stats_.index_build_ms + stats_.total_ms);
  }
  indexed_watermark_ = state.indexed_watermark;
  join_shed_posting_ = static_cast<size_t>(state.join_shed_posting);
  simplified_nodes_sum_ = state.simplified_nodes_sum;
  simplified_nodes_count_ = static_cast<size_t>(state.simplified_nodes_count);
  loop_first_pass_ = state.loop_first_pass;
  loop_dirty_.clear();
  loop_dirty_.insert(state.loop_dirty.begin(), state.loop_dirty.end());
  loop_deferred_ = state.loop_deferred;
  loop_needs_reset_ = false;
}

Status ResolutionEngine::ApplyPassMerge(const persist::WalMerge& m) {
  auto it_i = active_.find(m.i);
  auto it_j = active_.find(m.j);
  if (it_i == active_.end() || it_j == active_.end()) {
    return Status::Internal("merge of " + std::to_string(m.i) + " and " +
                            std::to_string(m.j) +
                            " references a dead record; WAL state mismatch");
  }
  // The smaller rid survives.
  const uint32_t new_rid = uf_.Union(m.i, m.j);
  if (new_rid != m.i) {
    return Status::Internal("union of " + std::to_string(m.i) + " and " +
                            std::to_string(m.j) + " kept rid " +
                            std::to_string(new_rid) + "; WAL state mismatch");
  }
  std::vector<std::pair<ValueLabel, ValueLabel>> remap;
  SuperRecord merged = SuperRecord::Merge(it_i->second, it_j->second,
                                          m.matching, new_rid, &remap);
  index_.ApplyMerge(m.i, m.j, new_rid, remap);
  active_.erase(it_j);
  it_i->second = std::move(merged);
  for (const auto& [attr_a, attr_b] : m.predictions) {
    predictor_.AddPrediction(attr_a, attr_b);
  }
  loop_dirty_.insert(new_rid);
  ++stats_.merges;
  if (c_merges_ != nullptr) c_merges_->Inc();
  stats_.merge_sequence.emplace_back(m.i, m.j);
  return Status::OK();
}

void ResolutionEngine::AddPassCounters(const persist::WalEntry& pass) {
  stats_.pruned_by_bound += static_cast<size_t>(pass.pruned);
  stats_.direct_merges += static_cast<size_t>(pass.direct);
  stats_.candidates += static_cast<size_t>(pass.candidates);
  stats_.comparisons += static_cast<size_t>(pass.comparisons);
  stats_.deferred_candidate_groups += static_cast<size_t>(pass.deferred_groups);
  stats_.frontier_groups += static_cast<size_t>(pass.frontier_groups);
  stats_.budget_deferred_groups += static_cast<size_t>(pass.budget_deferred);
  simplified_nodes_sum_ += pass.simplified_sum;
  simplified_nodes_count_ += static_cast<size_t>(pass.simplified_count);
  stats_.avg_simplified_nodes =
      simplified_nodes_count_ == 0
          ? 0.0
          : simplified_nodes_sum_ / static_cast<double>(simplified_nodes_count_);
  stats_.decided_schema_matchings = predictor_.DecidedMatchings().size();
}

Status ResolutionEngine::ReplayWalEntry(const persist::WalEntry& entry) {
  if (entry.iteration != stats_.iterations + 1) {
    return Status::Internal(
        "WAL entry out of sequence: expected iteration " +
        std::to_string(stats_.iterations + 1) + ", got " +
        std::to_string(entry.iteration));
  }
  ++stats_.iterations;
  loop_first_pass_ = false;
  loop_dirty_.clear();
  for (const persist::WalMerge& m : entry.merges) {
    HERA_RETURN_NOT_OK(ApplyPassMerge(m));
  }
  AddPassCounters(entry);
  // The live pass ticks the sampler's atomic mirrors as it goes; replay
  // adds the whole pass at once.
  if (c_verified_groups_ != nullptr) c_verified_groups_->Inc(entry.candidates);
  if (c_frontier_groups_ != nullptr) {
    c_frontier_groups_->Inc(entry.frontier_groups);
  }
  if (c_frontier_deferred_ != nullptr) {
    c_frontier_deferred_->Inc(entry.budget_deferred);
  }
  if (options_.progressive && c_frontier_verified_ != nullptr) {
    c_frontier_verified_->Inc(entry.candidates);
  }
  loop_deferred_ = entry.deferred_after;
  loop_needs_reset_ = false;
  return Status::OK();
}

}  // namespace hera
