// The traced run: times each layer through its public calls, from the
// benchmark's own code, and self-checks that what it timed is what
// Hera::Run did. Four stages follow the untraced reference runs:
//
//   1. staged engine   ResolutionEngine constructor + AddRecords,
//                      IndexNewRecords, IterateToFixpoint; labels and
//                      merge sequence must equal Hera::Run's.
//   2. join + build    SuperRecord::FromRecord, PrefixFilterJoin::Join
//                      configured as the engine configures it,
//                      ValuePairIndex::Build, one ForEachGroup scan;
//                      the pair count must equal stats.index_size.
//   3. pass-1 sweep    PairsFor + ComputeBounds on every group, Verify
//                      on every undecided group with Up >= delta.
//   4. merge replay    stats.merge_sequence in order: PairsFor,
//                      ComputeBounds, the R' matching or Verify (with a
//                      predictor fed as core/engine.cc feeds it),
//                      SuperRecord::Merge, ApplyMerge. Every merge must
//                      reach delta; the final super records and labels
//                      must equal the run's.
//
// Spans (name, start, end, parent) are kept in memory and written as a
// Chrome trace when the run ends.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "commands.h"
#include "common/timer.h"
#include "core/engine.h"
#include "core/hera.h"
#include "core/verifier.h"
#include "data/csv.h"
#include "eval/metrics.h"
#include "index/bounds.h"
#include "index/value_pair_index.h"
#include "obs/json.h"
#include "parallel/thread_pool.h"
#include "schema/majority_vote.h"
#include "sim/kernel.h"
#include "sim/kernel_dispatch.h"
#include "sim/metrics.h"
#include "sim/pair_cache.h"
#include "simjoin/similarity_join.h"
#include "text/token_cache.h"

namespace perfbench {

namespace {

using hera::IndexedPair;
using hera::SuperRecord;

/// In-memory span store; one thread, strictly nested spans.
class SpanRecorder {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };

  int Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowUs(), -1.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (the innermost open one); returns its duration.
  double End(int id) {
    spans_[id].end_us = NowUs();
    open_.pop_back();
    return spans_[id].end_us - spans_[id].start_us;
  }

  hera::Status WriteChromeTrace(const std::string& path) const {
    hera::obs::JsonWriter w;
    w.BeginObject().Key("traceEvents").BeginArray();
    for (size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      w.BeginObject()
          .Key("name").String(s.name)
          .Key("ph").String("X")
          .Key("ts").Number(s.start_us)
          .Key("dur").Number(s.end_us - s.start_us)
          .Key("pid").Int(1)
          .Key("tid").Int(1)
          .Key("args").BeginObject()
          .Key("id").UInt(k)
          .Key("parent").Int(s.parent)
          .EndObject()
          .EndObject();
    }
    w.EndArray().EndObject();
    std::ofstream out(path, std::ios::trunc);
    out << w.str() << "\n";
    out.close();
    if (!out) return hera::Status::IOError("cannot write spans to " + path);
    return hera::Status::OK();
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; End() may be called early to read the duration.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Microseconds from Begin to the first End() call.
  double End() {
    if (!ended_) {
      dur_us_ = recorder_->End(id_);
      ended_ = true;
    }
    return dur_us_;
  }

 private:
  SpanRecorder* recorder_;
  int id_;
  bool ended_ = false;
  double dur_us_ = 0.0;
};

/// Self-check tally: every Expect is one attempted operation.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail = "") {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(name + ": " + detail);
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-call latency summary: p50, p99, and the highest of the usual
/// percentiles that still has at least ten samples beyond it.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< 0 when fewer than 20 samples.
};

double NearestRank(const std::vector<double>& sorted, double pct) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = NearestRank(samples, 50.0);
  s.p99 = NearestRank(samples, 99.0);
  for (double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(s.n)));
    if (s.n >= rank + 10) {
      s.tail = NearestRank(samples, pct);
      s.tail_pct = pct;
      break;
    }
  }
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// All (label, value) pairs of one super record, in the engine's order.
void AppendValues(const SuperRecord& sr, std::vector<hera::LabeledValue>* out) {
  for (uint32_t f = 0; f < sr.num_fields(); ++f) {
    for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
      out->push_back({hera::ValueLabel{sr.rid(), f, v}, sr.field(f).value(v).value});
    }
  }
}

bool SameSuperRecord(const SuperRecord& a, const SuperRecord& b) {
  if (a.rid() != b.rid() || a.members() != b.members() ||
      a.num_fields() != b.num_fields()) {
    return false;
  }
  for (size_t f = 0; f < a.num_fields(); ++f) {
    const hera::Field& fa = a.field(f);
    const hera::Field& fb = b.field(f);
    if (fa.size() != fb.size()) return false;
    for (size_t v = 0; v < fa.size(); ++v) {
      if (!(fa.value(v).value == fb.value(v).value) ||
          !(fa.value(v).origin == fb.value(v).origin)) {
        return false;
      }
    }
  }
  return true;
}

size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

int PrintError(const std::string& what) {
  hera::obs::JsonWriter w;
  w.BeginObject().Key("status").String(what).EndObject();
  std::printf("%s\n", w.str().c_str());
  return 1;
}

}  // namespace

int CmdTrace(const Workload& workload, const std::string& corpus,
             double seconds, const std::string& spans_out) {
  const hera::HeraOptions& opts = workload.options;
  SpanRecorder spans;
  Checks checks;
  std::vector<Metric> metrics;
  auto emit = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  auto emit_latency = [&](const std::string& prefix, const LatencySummary& s) {
    emit(prefix + "_us_p50", s.p50, "us");
    emit(prefix + "_us_p99", s.p99, "us");
    emit(prefix + "_us_tail", s.tail, "us");
    emit(prefix + "_tail_pct", s.tail_pct, "pct");
  };
  ScopedSpan root(&spans, "traced_run");

  std::optional<hera::Dataset> loaded;
  {
    ScopedSpan span(&spans, "setup.read_dataset");
    hera::StatusOr<hera::Dataset> read = hera::ReadDataset(corpus);
    if (!read.ok()) return PrintError(read.status().ToString());
    loaded = std::move(read).value();
  }
  const hera::Dataset& ds = *loaded;

  // Untraced reference runs: the labels, stats and super records every
  // later stage is checked against, and the median the staged engine's
  // total is compared with.
  std::vector<double> untraced_s;
  std::optional<hera::HeraResult> ref;
  {
    ScopedSpan span(&spans, "untraced.hera_run");
    hera::Timer budget;
    do {
      ref.reset();
      hera::Timer timer;
      hera::StatusOr<hera::HeraResult> run = hera::Hera(opts).Run(ds);
      untraced_s.push_back(timer.ElapsedSeconds());
      if (!run.ok()) return PrintError(run.status().ToString());
      ref = std::move(run).value();
    } while (budget.ElapsedSeconds() < seconds);
  }
  const hera::HeraStats& rs = ref->stats;
  checks.Expect(rs.outcome == hera::RunOutcome::kCompleted, "reference.outcome",
                hera::RunOutcomeToString(rs.outcome));

  hera::ValueSimilarityPtr simv = hera::MakeSimilarity(opts.metric);
  if (simv == nullptr) return PrintError("unknown metric " + opts.metric);

  // 1. Staged engine: Hera::Run's own sequence of public calls.
  double add_ms = 0.0, index_ms = 0.0, loop_ms = 0.0, staged_ms = 0.0;
  hera::HeraStats staged;
  {
    ScopedSpan stage(&spans, "core.staged_engine");
    std::unique_ptr<hera::ResolutionEngine> engine;
    {
      ScopedSpan span(&spans, "core.add_records");
      engine = std::make_unique<hera::ResolutionEngine>(opts, simv);
      engine->AddRecords(ds.records());
      engine->ArmGuard();
      add_ms = span.End() / 1000.0;
    }
    {
      ScopedSpan span(&spans, "core.index");
      hera::StatusOr<size_t> added = engine->IndexNewRecords();
      index_ms = span.End() / 1000.0;
      checks.Expect(added.ok(), "staged.index", added.status().ToString());
    }
    {
      ScopedSpan span(&spans, "core.loop");
      hera::Status st = engine->IterateToFixpoint();
      loop_ms = span.End() / 1000.0;
      checks.Expect(st.ok(), "staged.loop", st.ToString());
    }
    staged = engine->stats();
    checks.Expect(engine->Labels() == ref->entity_of, "staged.labels",
                  "labels differ from Hera::Run");
    checks.Expect(staged.merge_sequence == rs.merge_sequence,
                  "staged.merge_sequence", "merge sequence differs from Hera::Run");
    {
      ScopedSpan span(&spans, "core.teardown");
      engine.reset();
    }
    staged_ms = stage.End() / 1000.0;
  }
  const double untraced_median_s = Median(untraced_s);
  emit("core.add_records_ms", add_ms, "ms");
  emit("core.index_ms", index_ms, "ms");
  emit("core.loop_ms", loop_ms, "ms");
  emit("core.loop_share", Ratio(loop_ms, staged_ms), "ratio");
  emit("core.iterations", static_cast<double>(staged.iterations), "count");
  emit("core.comparisons", static_cast<double>(staged.comparisons), "count");
  emit("core.direct_merges", static_cast<double>(staged.direct_merges), "count");
  emit("core.pruned_by_bound", static_cast<double>(staged.pruned_by_bound), "count");
  emit("core.merges", static_cast<double>(staged.merges), "count");

  // 2. Join and build probe.
  std::map<uint32_t, SuperRecord> active;
  {
    ScopedSpan span(&spans, "record.lift");
    for (const hera::Record& r : ds.records()) {
      active.emplace(r.id(), SuperRecord::FromRecord(r));
    }
  }
  hera::ValuePairIndex index;
  std::vector<std::pair<uint32_t, uint32_t>> groups;
  {
    ScopedSpan probe(&spans, "probe");
    std::vector<hera::LabeledValue> values;
    for (const auto& [rid, sr] : active) AppendValues(sr, &values);

    // Configured exactly as ResolutionEngine configures its joiner.
    const int metric_q = hera::GramMetricSize(simv->Name());
    hera::PrefixFilterJoin joiner(metric_q > 0 ? metric_q : 2);
    joiner.SetTokenCache(std::make_shared<hera::TokenCache>(joiner.q()));
    joiner.SetEncodedKernels(opts.use_encoded_kernels);
    joiner.SetIndexBackend(opts.index_backend, opts.flat_pipeline_depth);
    std::shared_ptr<hera::PairSimCache> cache;
    if (opts.enable_pair_sim_cache) {
      cache = std::make_shared<hera::PairSimCache>(simv->Name(),
                                                   opts.pair_sim_cache_capacity);
      joiner.SetPairSimCache(cache);
    }
    std::unique_ptr<hera::ThreadPool> pool;
    if (opts.num_threads > 1) {
      pool = std::make_unique<hera::ThreadPool>(opts.num_threads);
      joiner.SetExecutor(pool.get());
    }

    const hera::KernelCounterSnapshot k0 = hera::KernelCountersNow();
    const hera::PairSimCache::Stats c0 = cache ? cache->stats() : hera::PairSimCache::Stats{};
    std::vector<hera::ValuePair> pairs;
    hera::JoinReport report;
    double join_ms = 0.0;
    {
      ScopedSpan span(&spans, "simjoin.join");
      hera::Status st =
          joiner.Join(values, *simv, opts.xi, hera::RunGuard(), &pairs, &report);
      join_ms = span.End() / 1000.0;
      checks.Expect(st.ok(), "probe.join", st.ToString());
    }
    const hera::KernelCounterSnapshot k1 = hera::KernelCountersNow();
    const hera::PairSimCache::Stats c1 = cache ? cache->stats() : hera::PairSimCache::Stats{};
    emit("simjoin.join_ms", join_ms, "ms");
    emit("simjoin.candidates", static_cast<double>(report.candidates), "count");
    emit("simjoin.verified", static_cast<double>(report.verified), "count");
    emit("simjoin.emitted", static_cast<double>(report.emitted), "count");
    emit("simjoin.useful_ratio",
         Ratio(static_cast<double>(report.emitted), static_cast<double>(report.verified)),
         "ratio");
    emit("simjoin.pruned_prefix", static_cast<double>(report.pruned_prefix), "count");
    emit("simjoin.pruned_suffix", static_cast<double>(report.pruned_suffix), "count");
    emit("simjoin.threads_used", static_cast<double>(report.threads_used), "count");
    const double lookups = static_cast<double>((c1.hits + c1.misses) - (c0.hits + c0.misses));
    emit("sim.simd_intersections",
         static_cast<double>(k1.simd_intersections - k0.simd_intersections), "count");
    emit("sim.myers_calls", static_cast<double>(k1.myers_calls - k0.myers_calls), "count");
    emit("sim.pairsim_lookups", lookups, "count");
    emit("sim.pairsim_hit_ratio", Ratio(static_cast<double>(c1.hits - c0.hits), lookups),
         "ratio");
    emit("sim.dispatch_tier",
         hera::KernelDispatchGaugeValue(hera::ActiveKernelDispatch()), "tier");

    index.SetBackend(opts.index_backend, opts.flat_pipeline_depth);
    index.SetCeilings(opts.guard.max_index_pairs(), opts.guard.max_posting_list());
    const size_t heap_before = HeapInUse();
    double build_ms = 0.0;
    {
      ScopedSpan span(&spans, "index.build");
      index.Build(pairs);
      build_ms = span.End() / 1000.0;
    }
    const double heap_growth =
        static_cast<double>(HeapInUse()) - static_cast<double>(heap_before);
    checks.Expect(index.size() == rs.index_size, "probe.index_size",
                  std::to_string(index.size()) + " pairs vs stats.index_size " +
                      std::to_string(rs.index_size));
    emit("index.build_ms", build_ms, "ms");
    emit("index.pairs", static_cast<double>(index.size()), "count");
    emit("index.heap_bytes_per_pair",
         Ratio(heap_growth, static_cast<double>(index.size())), "B");

    double scan_ms = 0.0;
    {
      ScopedSpan span(&spans, "index.scan");
      index.ForEachGroup([&](uint32_t r1, uint32_t r2,
                             const std::vector<IndexedPair>& /*pairs*/) {
        groups.emplace_back(r1, r2);
      });
      scan_ms = span.End() / 1000.0;
    }
    emit("index.scan_ms", scan_ms, "ms");
    emit("index.groups", static_cast<double>(groups.size()), "count");
  }

  // 3. Pass-1 sweep over every group of the freshly built index. The
  // predictor starts empty, as the engine's does at pass 1; the sweep
  // only times the calls, so votes later in the pass do not matter.
  std::vector<double> pairs_for_us, verify_us;
  double bounds_us = 0.0, km_size_sum = 0.0;
  size_t pruned = 0, exact = 0, accepted = 0;
  {
    ScopedSpan span(&spans, "sweep.pass1");
    hera::SchemaMatchingPredictor predictor(opts.vote_prior_p, opts.vote_rho);
    hera::InstanceBasedVerifier verifier(opts.enable_schema_voting ? &predictor
                                                                   : nullptr);
    pairs_for_us.reserve(groups.size());
    for (const auto& [r1, r2] : groups) {
      const SuperRecord& a = active.at(r1);
      const SuperRecord& b = active.at(r2);
      hera::Timer timer;
      const std::vector<IndexedPair> pairs = index.PairsFor(r1, r2);
      pairs_for_us.push_back(timer.ElapsedMicros());
      timer.Restart();
      const hera::BoundResult bounds =
          hera::ComputeBounds(pairs, a.num_fields(), b.num_fields(), opts.tight_bounds);
      bounds_us += timer.ElapsedMicros();
      if (bounds.upper < opts.delta) {
        ++pruned;
        continue;
      }
      if (bounds.upper == bounds.lower) {
        ++exact;
        continue;
      }
      timer.Restart();
      const hera::VerifyResult vr = verifier.Verify(a, b, pairs);
      verify_us.push_back(timer.ElapsedMicros());
      km_size_sum += static_cast<double>(vr.km_size);
      if (vr.sim >= opts.delta) ++accepted;
    }
  }
  emit("index.bounds_pruned_ratio",
       Ratio(static_cast<double>(pruned), static_cast<double>(groups.size())), "ratio");
  emit("index.bounds_exact_ratio",
       Ratio(static_cast<double>(exact), static_cast<double>(groups.size())), "ratio");

  // 4. Merge-path replay: the engine's maintenance calls, same arguments,
  // same order.
  std::vector<double> apply_us;
  double record_merge_us = 0.0;
  hera::SchemaMatchingPredictor predictor(opts.vote_prior_p, opts.vote_rho);
  {
    ScopedSpan replay(&spans, "replay");
    const bool voting = opts.enable_schema_voting;
    hera::InstanceBasedVerifier verifier(voting ? &predictor : nullptr);
    apply_us.reserve(rs.merge_sequence.size());
    for (size_t k = 0; k < rs.merge_sequence.size(); ++k) {
      const auto [i, j] = rs.merge_sequence[k];
      ScopedSpan merge_span(&spans, "replay.merge");
      auto it_i = active.find(i);
      auto it_j = active.find(j);
      if (i >= j || it_i == active.end() || it_j == active.end()) {
        checks.Expect(false, "replay.live_roots",
                      "merge " + std::to_string(k) + " (" + std::to_string(i) +
                          ", " + std::to_string(j) + ") is not two live roots");
        break;
      }
      std::vector<IndexedPair> pairs;
      {
        ScopedSpan span(&spans, "index.pairs_for");
        pairs = index.PairsFor(i, j);
        pairs_for_us.push_back(span.End());
      }
      hera::BoundResult bounds;
      {
        ScopedSpan span(&spans, "index.bounds");
        bounds = hera::ComputeBounds(pairs, it_i->second.num_fields(),
                                     it_j->second.num_fields(), opts.tight_bounds);
        bounds_us += span.End();
      }
      std::vector<hera::FieldMatch> matching;
      double sim = bounds.upper;
      if (bounds.upper == bounds.lower) {
        // R': the refined set is the matching, and it votes.
        for (const IndexedPair& p : bounds.refined) {
          matching.push_back({p.a.fid, p.b.fid, p.sim});
          if (voting) {
            predictor.AddPrediction(it_i->second.field(p.a.fid).value(p.a.vid).origin,
                                    it_j->second.field(p.b.fid).value(p.b.vid).origin);
          }
        }
      } else {
        hera::VerifyResult vr;
        {
          ScopedSpan span(&spans, "matching.verify");
          vr = verifier.Verify(it_i->second, it_j->second, pairs);
          verify_us.push_back(span.End());
        }
        km_size_sum += static_cast<double>(vr.km_size);
        sim = vr.sim;
        if (sim >= opts.delta) ++accepted;
        matching = std::move(vr.matching);
        if (voting && sim >= opts.delta) {
          for (const auto& [attr_a, attr_b] : vr.predictions) {
            predictor.AddPrediction(attr_a, attr_b);
          }
        }
      }
      checks.Expect(!pairs.empty() && sim >= opts.delta, "replay.reaches_delta",
                    "merge " + std::to_string(k) + " (" + std::to_string(i) + ", " +
                        std::to_string(j) + ") sim " + std::to_string(sim));
      std::vector<std::pair<hera::ValueLabel, hera::ValueLabel>> remap;
      SuperRecord merged;
      {
        ScopedSpan span(&spans, "record.merge");
        merged = SuperRecord::Merge(it_i->second, it_j->second, matching, i, &remap);
        record_merge_us += span.End();
      }
      {
        ScopedSpan span(&spans, "index.apply_merge");
        index.ApplyMerge(i, j, i, remap);
        apply_us.push_back(span.End());
      }
      active.erase(it_j);
      it_i->second = std::move(merged);
    }
  }

  bool same_records = active.size() == ref->super_records.size();
  for (auto a = active.begin(), b = ref->super_records.begin();
       same_records && a != active.end(); ++a, ++b) {
    same_records = a->first == b->first && SameSuperRecord(a->second, b->second);
  }
  checks.Expect(same_records, "replay.super_records",
                "replayed super records differ from Hera::Run's");
  std::vector<uint32_t> labels(ds.size(), UINT32_MAX);
  for (const auto& [rid, sr] : active) {
    for (uint32_t m : sr.members()) {
      if (m < labels.size()) labels[m] = rid;
    }
  }
  checks.Expect(labels == ref->entity_of, "replay.labels",
                "replayed labels differ from Hera::Run's");
  const size_t decided = predictor.DecidedMatchings().size();
  checks.Expect(decided == rs.decided_schema_matchings, "replay.decided_matchings",
                std::to_string(decided) + " vs " +
                    std::to_string(rs.decided_schema_matchings));
  checks.Expect(index.CheckInvariants(), "replay.index_invariants",
                "ValuePairIndex::CheckInvariants failed after the replay");

  const LatencySummary pairs_for = Summarize(pairs_for_us);
  const LatencySummary apply = Summarize(apply_us);
  const LatencySummary verify = Summarize(verify_us);
  double apply_total_us = 0.0, verify_total_us = 0.0;
  for (double us : apply_us) apply_total_us += us;
  for (double us : verify_us) verify_total_us += us;
  emit("index.pairs_for_calls", static_cast<double>(pairs_for.n), "count");
  emit_latency("index.pairs_for", pairs_for);
  emit("index.apply_merge_ms", apply_total_us / 1000.0, "ms");
  emit("index.apply_merge_calls", static_cast<double>(apply.n), "count");
  emit_latency("index.apply_merge", apply);
  emit("index.bounds_ms", bounds_us / 1000.0, "ms");
  emit("matching.verify_calls", static_cast<double>(verify.n), "count");
  emit("matching.verify_ms", verify_total_us / 1000.0, "ms");
  emit_latency("matching.verify", verify);
  emit("matching.km_size_mean", Ratio(km_size_sum, static_cast<double>(verify.n)), "count");
  emit("matching.accept_ratio",
       Ratio(static_cast<double>(accepted), static_cast<double>(verify.n)), "ratio");
  emit("record.merge_ms", record_merge_us / 1000.0, "ms");
  emit("schema.decided_matchings", static_cast<double>(decided), "count");
  emit("trace.untraced_runs", static_cast<double>(untraced_s.size()), "count");
  emit("trace.untraced_resolve_s", untraced_median_s, "s");
  emit("trace.staged_total_s", staged_ms / 1000.0, "s");
  emit("trace.overhead_pct",
       100.0 * (staged_ms / 1000.0 - untraced_median_s) / untraced_median_s, "pct");

  root.End();
  const hera::Status written = spans.WriteChromeTrace(spans_out);
  checks.Expect(written.ok(), "spans.write", written.ToString());

  hera::obs::JsonWriter w;
  w.BeginObject()
      .Key("status").String("OK")
      .Key("outcome").String(hera::RunOutcomeToString(rs.outcome))
      .Key("labels_fp").String(LabelsFingerprint(ref->entity_of))
      .Key("index_size").UInt(rs.index_size)
      .Key("merges").UInt(rs.merges)
      .Key("pair_f1").Number(hera::EvaluatePairs(ref->entity_of, ds.entity_of()).f1)
      .Key("attempted").UInt(checks.attempted())
      .Key("failed").UInt(checks.failed())
      .Key("failures").BeginArray();
  for (const std::string& f : checks.failures()) w.String(f);
  w.EndArray().Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject().Key("value").Number(m.value).Key("unit").String(m.unit).EndObject();
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace perfbench
