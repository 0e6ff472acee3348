#include "simjoin/similarity_join.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "parallel/parallel_for.h"
#include "sim/kernel.h"
#include "text/normalize.h"
#include "text/qgram.h"

// Software prefetch hint for the probe loop; a no-op on compilers
// without __builtin_prefetch.
#if defined(__GNUC__) || defined(__clang__)
#define HERA_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#else
#define HERA_PREFETCH_READ(addr) ((void)sizeof(addr))
#endif

namespace hera {

std::vector<ValuePair> SimilarityJoin::Join(
    const std::vector<LabeledValue>& values, const ValueSimilarity& simv,
    double xi) const {
  std::vector<ValuePair> out;
  Join(values, simv, xi, RunGuard(), &out);
  return out;
}

std::vector<ValuePair> SimilarityJoin::JoinAB(
    const std::vector<LabeledValue>& probe, const std::vector<LabeledValue>& base,
    const ValueSimilarity& simv, double xi) const {
  std::vector<ValuePair> out;
  JoinAB(probe, base, simv, xi, RunGuard(), &out);
  return out;
}

namespace {

/// Filter/verify counters accumulated per chunk and folded across the
/// join's phases; the single accumulator the report is written from.
struct JoinCounters {
  size_t candidates = 0;
  size_t verified = 0;
  /// Candidates counted but dropped unverified when the guard tripped
  /// at their batch's weighted Tick(n) check (trip-boundary exactness:
  /// candidates == verified + shed_candidates for truncated runs).
  size_t shed_candidates = 0;
  /// Token-path pairs that shared at least one indexed prefix token,
  /// counted once per pair (the marker dedup fires before any filter).
  size_t encountered = 0;
  size_t pruned_length = 0;
  size_t pruned_positional = 0;
  size_t pruned_suffix = 0;

  void Fold(const JoinCounters& o) {
    candidates += o.candidates;
    verified += o.verified;
    shed_candidates += o.shed_candidates;
    encountered += o.encountered;
    pruned_length += o.pruned_length;
    pruned_positional += o.pruned_positional;
    pruned_suffix += o.pruned_suffix;
  }
};

/// One chunk's output: pairs found plus filter/verify counters. Chunks
/// are concatenated in chunk index order (MergeChunks), which is what
/// makes parallel output byte-identical to serial for completed runs.
struct ChunkOut {
  std::vector<ValuePair> pairs;
  JoinCounters counters;
};

void MergeChunks(std::vector<ChunkOut>& chunks, std::vector<ValuePair>* out,
                 JoinCounters* totals) {
  size_t total = 0;
  for (const ChunkOut& c : chunks) total += c.pairs.size();
  out->reserve(out->size() + total);
  for (ChunkOut& c : chunks) {
    std::move(c.pairs.begin(), c.pairs.end(), std::back_inserter(*out));
    totals->Fold(c.counters);
  }
}

/// Writes the accumulated counters into the report (the plumbing every
/// join tail used to duplicate). `token_pairs` is the number of pairs
/// eligible for the token path; the prefix filter's effect is derived
/// from it — pairs it never surfaced were prefix-pruned.
void FinishReport(JoinReport* report, const JoinCounters& totals,
                  bool truncated, size_t shed_posting, size_t token_pairs,
                  const std::vector<ValuePair>& out) {
  if (!report) return;
  report->truncated = truncated;
  report->shed_posting_entries = shed_posting;
  report->candidates = totals.candidates;
  report->verified = totals.verified;
  report->shed_candidates = totals.shed_candidates;
  report->emitted = out.size();
  report->pruned_prefix =
      token_pairs > totals.encountered ? token_pairs - totals.encountered : 0;
  report->pruned_length = totals.pruned_length;
  report->pruned_positional = totals.pruned_positional;
  report->pruned_suffix = totals.pruned_suffix;
}

/// Folds one parallel phase's stats into the join report (element-wise
/// busy-time sum; threads_used is the widest phase). `phase` names the
/// phase for the recorded chunk spans (if any) and `phase_offset_us`
/// rebases their call-relative starts onto the join-entry clock.
void AccumulateBusy(const ParallelRunStats& stats, JoinReport* report,
                    const char* phase = "", double phase_offset_us = 0.0) {
  if (!report) return;
  report->threads_used = std::max(report->threads_used, stats.workers);
  for (const ChunkSpan& cs : stats.chunk_spans) {
    report->worker_spans.push_back(
        {phase, cs.chunk, cs.worker, phase_offset_us + cs.start_us, cs.dur_us});
  }
  if (stats.workers <= 1) return;
  if (report->worker_busy_us.size() < stats.busy_us.size()) {
    report->worker_busy_us.resize(stats.busy_us.size(), 0.0);
  }
  for (size_t w = 0; w < stats.busy_us.size(); ++w) {
    report->worker_busy_us[w] += stats.busy_us[w];
  }
}

size_t NumChunks(size_t n, size_t grain) {
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// True when `simv` is q-gram Jaccard, so the prefix filter is exact
/// and verification can run on the encoded token sets directly.
bool IsJaccardMetric(const ValueSimilarity& simv, int q) {
  std::string name = simv.Name();
  std::string expect = "jaccard_q" + std::to_string(q);
  return name == expect || name == "hybrid(" + expect + ")";
}

/// How a join verifies the candidates the filters let through.
struct VerifyPlan {
  /// Kernel-eligible metric: score encoded token sets directly
  /// (bit-equal to the string path; see sim/kernel.h).
  bool use_kernel = false;
  SetSimKind kind = SetSimKind::kJaccard;
  /// Positional/suffix filters apply (exact threshold: q-gram Jaccard
  /// with kernels on).
  bool exact_filters = false;
  /// Metric-matched PairSimCache for the fallback string path, or null.
  PairSimCache* pair_cache = nullptr;
};

/// Suffix filter recursion depth (each level costs a binary search and
/// halves the spans; 2 is where the cost/benefit curve flattens for
/// q-gram-sized sets).
constexpr int kSuffixFilterDepth = 2;
/// Skip the suffix filter when the remaining spans are shorter than
/// this — verifying tiny sets outright is cheaper than bounding them.
constexpr size_t kSuffixFilterMinRemain = 8;

/// PPJoin+-style check at the pair's first shared prefix token, found
/// at position `px` of `x` and `py` of `y` (both sorted rare-first).
/// Elements below the shared token contribute at most min(px, py) to
/// the intersection, the token itself 1, the suffixes at most
/// min(remaining) (positional bound) — tightened by a depth-limited
/// partition bound (suffix filter). Pruning only when the intersection
/// provably cannot reach MinOverlapForThreshold keeps the filter exact:
/// every pruned pair scores < xi.
/// Returns 0 = keep, 1 = positional-pruned, 2 = suffix-pruned.
int PositionalSuffixFilter(const std::vector<uint32_t>& x, size_t px,
                           const std::vector<uint32_t>& y, size_t py,
                           double xi) {
  const size_t nx = x.size(), ny = y.size();
  const size_t alpha =
      MinOverlapForThreshold(SetSimKind::kJaccard, nx, ny, xi);
  const size_t below = std::min(px, py) + 1;
  const size_t rx = nx - px - 1, ry = ny - py - 1;
  if (below + std::min(rx, ry) < alpha) return 1;
  if (std::min(rx, ry) >= kSuffixFilterMinRemain) {
    size_t ub = below + OverlapUpperBound(x.data() + px + 1, rx,
                                          y.data() + py + 1, ry,
                                          kSuffixFilterDepth);
    if (ub < alpha) return 2;
  }
  return 0;
}

VerifyPlan MakeVerifyPlan(const ValueSimilarity& simv, int q,
                          bool encoded_kernels, PairSimCache* cache) {
  VerifyPlan plan;
  SetSimKind kind;
  if (encoded_kernels && GramMetricKind(simv.Name(), q, &kind)) {
    plan.use_kernel = true;
    plan.kind = kind;
  }
  plan.exact_filters = encoded_kernels && IsJaccardMetric(simv, q);
  plan.pair_cache = plan.use_kernel ? nullptr : cache;
  return plan;
}

/// Scores one string-path candidate per the plan: kernel when
/// eligible (early exit below xi returns a negative sentinel, which
/// callers' `s >= xi` emission test already rejects), else the metric,
/// served from the pair cache when one is installed.
double VerifyStringPair(const VerifyPlan& plan, const ValueSimilarity& simv,
                        double xi, const std::vector<uint32_t>& x_ids,
                        const std::vector<uint32_t>& y_ids, const Value& va,
                        const Value& vb) {
  if (plan.use_kernel) return SetSimilarityBounded(plan.kind, x_ids, y_ids, xi);
  if (plan.pair_cache != nullptr) {
    return plan.pair_cache->GetOrCompute(
        va.ToString(), vb.ToString(), [&] { return simv.Compute(va, vb); });
  }
  return simv.Compute(va, vb);
}

/// True when `simv` scores two numbers by value, so numbers take the
/// numeric sweep instead of the token path.
bool MetricHandlesNumbers(const ValueSimilarity& simv) {
  const std::string name = simv.Name();
  return StartsWith(name, "hybrid(") || name == "numeric";
}

/// The numeric sweep's search window, derived from the metric name so
/// the filter stays exact for both built-in numeric semantics: relative
/// difference, sim >= xi iff |y - x| <= (1 - xi) * max(|x|, |y|), and
/// absolute tolerance, |y - x| <= (1 - xi) * tol. The window is a
/// pruning device only (the metric makes the final call), so it is
/// epsilon-relaxed: computing 1 - xi in floating point could otherwise
/// exclude exact-boundary pairs (sim == xi).
struct NumericWindow {
  bool absolute = false;
  double tol = 0.0;
  double slack = 0.0;  // 1 - xi.

  bool Contains(double x, double y) const {
    const double gap = std::fabs(y - x);
    if (absolute) return gap <= slack * tol + 1e-9;
    const double denom = std::max(std::fabs(x), std::fabs(y));
    return denom == 0.0 ? gap == 0.0
                        : gap <= slack * denom + 1e-9 * std::max(1.0, denom);
  }

  /// Once y leaves the window moving away from x in direction `dir`
  /// (+1 up, -1 down), every further y is outside too: always for the
  /// absolute window, and for the relative one once y has crossed zero
  /// in that direction (|y| then grows with the gap).
  bool LeftForGood(double y, int dir) const {
    return absolute || (dir > 0 ? y > 0 : y < 0);
  }
};

NumericWindow NumericWindowFor(const ValueSimilarity& simv, double xi) {
  NumericWindow w;
  w.slack = 1.0 - xi;
  std::string name = simv.Name();
  size_t pos = name.find("numeric_tol");
  if (pos != std::string::npos) {
    w.absolute = true;
    w.tol = std::atof(name.c_str() + pos + 11);
  }
  return w;
}

/// Prefix length for the AllPairs filter at threshold filter_xi.
size_t PrefixLen(size_t len, double filter_xi) {
  size_t keep =
      static_cast<size_t>(std::ceil(static_cast<double>(len) * filter_xi));
  size_t prefix = len - (keep > 0 ? keep : 1) + 1;
  return std::min(prefix, len);
}

/// One encoded string value: its sorted rare-first token ids.
struct TokenSet {
  const LabeledValue* value;
  std::vector<uint32_t> ids;
};

/// One posting entry: the indexed set and the token's position in it,
/// which the positional filter reasons about at probe time.
struct Posting {
  size_t set;
  size_t pos;
};

/// The join's token -> posting-list table.
class PostingTable {
 public:
  using List = std::vector<Posting>;

  explicit PostingTable(size_t max_posting) : max_posting_(max_posting) {}

  /// Appends (set, pos) to the list of each token ids[pos], pos < len.
  /// A list at the posting ceiling drops the entry and counts it shed.
  void Add(const std::vector<uint32_t>& ids, size_t len, size_t set) {
    for (size_t pos = 0; pos < len; ++pos) {
      List& list = lists_[ids[pos]];
      if (max_posting_ > 0 && list.size() >= max_posting_) {
        ++shed_;
        continue;
      }
      list.push_back({set, pos});
    }
  }

  /// Sets (*lists)[k] to the list of token ids[k], k < prefix, or null
  /// when the token has none. Safe to call concurrently once built.
  void Gather(const std::vector<uint32_t>& ids, size_t prefix,
              std::vector<const List*>* lists) const {
    lists->clear();
    for (size_t k = 0; k < prefix; ++k) {
      auto it = lists_.find(ids[k]);
      lists->push_back(it == lists_.end() ? nullptr : &it->second);
    }
  }

  size_t shed() const { return shed_; }

 private:
  const size_t max_posting_;
  size_t shed_ = 0;
  std::unordered_map<uint32_t, List> lists_;
};

}  // namespace

Status NestedLoopJoin::Join(const std::vector<LabeledValue>& values,
                            const ValueSimilarity& simv, double xi,
                            const RunGuard& guard, std::vector<ValuePair>* out,
                            JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  ThreadPool* pool = executor();
  const bool rec = collect_worker_spans() && report != nullptr &&
                   pool != nullptr && pool->size() > 1;
  PairSimCache* pair_cache = PairCacheFor(simv);
  const size_t n = values.size();
  const size_t grain = DefaultGrain(n, pool ? pool->size() : 1);
  std::vector<ChunkOut> chunks(NumChunks(n, grain));
  std::atomic<bool> stop{false};
  ParallelRunStats stats = ParallelChunks(
      pool, n, grain,
      [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
        ChunkOut& co = chunks[chunk];
        GuardTicker ticker(guard);
        for (size_t i = begin;
             i < end && !stop.load(std::memory_order_relaxed); ++i) {
          for (size_t j = i + 1; j < n; ++j) {
            if (ticker.Tick()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            if (values[i].label.rid == values[j].label.rid) continue;
            ++co.counters.candidates;
            ++co.counters.verified;
            const Value& va = values[i].value;
            const Value& vb = values[j].value;
            double s = (pair_cache && va.is_string() && vb.is_string())
                           ? pair_cache->GetOrCompute(
                                 va.AsString(), vb.AsString(),
                                 [&] { return simv.Compute(va, vb); })
                           : simv.Compute(va, vb);
            if (s >= xi) co.pairs.push_back({values[i].label, values[j].label, s});
          }
        }
      },
      rec);
  JoinCounters totals;
  MergeChunks(chunks, out, &totals);
  FinishReport(report, totals, stop.load(std::memory_order_relaxed), 0, 0,
               *out);
  AccumulateBusy(stats, report, "join.nested");
  return Status::OK();
}

Status NestedLoopJoin::JoinAB(const std::vector<LabeledValue>& probe,
                              const std::vector<LabeledValue>& base,
                              const ValueSimilarity& simv, double xi,
                              const RunGuard& guard,
                              std::vector<ValuePair>* out,
                              JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  ThreadPool* pool = executor();
  const bool rec = collect_worker_spans() && report != nullptr &&
                   pool != nullptr && pool->size() > 1;
  PairSimCache* pair_cache = PairCacheFor(simv);
  const size_t n = probe.size();
  const size_t grain = DefaultGrain(n, pool ? pool->size() : 1);
  std::vector<ChunkOut> chunks(NumChunks(n, grain));
  std::atomic<bool> stop{false};
  ParallelRunStats stats = ParallelChunks(
      pool, n, grain,
      [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
        ChunkOut& co = chunks[chunk];
        GuardTicker ticker(guard);
        for (size_t pi = begin;
             pi < end && !stop.load(std::memory_order_relaxed); ++pi) {
          const LabeledValue& p = probe[pi];
          for (const LabeledValue& b : base) {
            if (ticker.Tick()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            if (p.label.rid == b.label.rid) continue;
            ++co.counters.candidates;
            ++co.counters.verified;
            double s = (pair_cache && p.value.is_string() && b.value.is_string())
                           ? pair_cache->GetOrCompute(
                                 p.value.AsString(), b.value.AsString(),
                                 [&] { return simv.Compute(p.value, b.value); })
                           : simv.Compute(p.value, b.value);
            if (s >= xi) co.pairs.push_back({p.label, b.label, s});
          }
        }
      },
      rec);
  JoinCounters totals;
  MergeChunks(chunks, out, &totals);
  FinishReport(report, totals, stop.load(std::memory_order_relaxed), 0, 0,
               *out);
  AccumulateBusy(stats, report, "join.nested");
  return Status::OK();
}

Status PrefixFilterJoin::Join(const std::vector<LabeledValue>& values,
                              const ValueSimilarity& simv, double xi,
                              const RunGuard& guard,
                              std::vector<ValuePair>* out,
                              JoinReport* report) const {
  return Probe(nullptr, values, simv, xi, guard, out, report);
}

Status PrefixFilterJoin::JoinAB(const std::vector<LabeledValue>& probe,
                                const std::vector<LabeledValue>& base,
                                const ValueSimilarity& simv, double xi,
                                const RunGuard& guard,
                                std::vector<ValuePair>* out,
                                JoinReport* report) const {
  return Probe(&probe, base, simv, xi, guard, out, report);
}

Status PrefixFilterJoin::Probe(const std::vector<LabeledValue>* probe,
                               const std::vector<LabeledValue>& base,
                               const ValueSimilarity& simv, double xi,
                               const RunGuard& guard,
                               std::vector<ValuePair>* out,
                               JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  const bool self = probe == nullptr;
  ThreadPool* pool = executor();
  const size_t nworkers = (pool && pool->size() > 1) ? pool->size() : 1;
  // Per-phase chunk spans are rebased onto this join-entry clock so the
  // report's worker spans share one origin across all phases.
  Timer join_timer;
  const bool rec =
      collect_worker_spans() && report != nullptr && nworkers > 1;
  std::atomic<bool> stop{false};
  JoinCounters totals;

  // Partition: numbers go to the sweep when the metric scores them by
  // value; every other non-null value takes the token path over its
  // canonical string rendering. The token path holds the base's values
  // first, then the probe's.
  const bool sweep_numbers = MetricHandlesNumbers(simv);
  std::vector<const LabeledValue*> base_nums, probe_nums, texts;
  auto partition = [&](const std::vector<LabeledValue>& values,
                       std::vector<const LabeledValue*>* nums) {
    for (const LabeledValue& lv : values) {
      if (lv.value.is_null()) continue;
      (sweep_numbers && lv.value.is_number() ? *nums : texts).push_back(&lv);
    }
  };
  partition(base, &base_nums);
  const size_t base_texts = texts.size();
  if (!self) partition(*probe, &probe_nums);

  // ---- Numeric sweep: the base's numbers sorted by value; each probe
  // scans outward from its own position while the window can hold. The
  // self-join probes the sorted list itself and scans only upward from
  // the next position, so each pair is seen once. Chunks of probes scan
  // the read-only sorted list independently.
  auto below = [](const LabeledValue* lv, double v) {
    return lv->value.AsNumber() < v;
  };
  std::sort(base_nums.begin(), base_nums.end(),
            [&](const LabeledValue* a, const LabeledValue* b) {
              return below(a, b->value.AsNumber());
            });
  const std::vector<const LabeledValue*>& num_probes =
      self ? base_nums : probe_nums;
  const NumericWindow window = NumericWindowFor(simv, xi);
  {
    const size_t n = num_probes.size();
    const size_t grain = DefaultGrain(n, nworkers);
    std::vector<ChunkOut> chunks(NumChunks(n, grain));
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t /*worker*/) {
          ChunkOut& co = chunks[chunk];
          GuardTicker ticker(guard);
          for (size_t p = begin;
               p < end && !stop.load(std::memory_order_relaxed); ++p) {
            const LabeledValue& pv = *num_probes[p];
            const double x = pv.value.AsNumber();
            const size_t start =
                self ? p + 1
                     : static_cast<size_t>(
                           std::lower_bound(base_nums.begin(), base_nums.end(),
                                            x, below) -
                           base_nums.begin());
            // Visits base_nums[k]; false when it lies outside the window.
            auto visit = [&](size_t k) {
              const LabeledValue& bv = *base_nums[k];
              if (!window.Contains(x, bv.value.AsNumber())) return false;
              if (pv.label.rid != bv.label.rid) {
                ++co.counters.candidates;
                ++co.counters.verified;
                double s = simv.Compute(pv.value, bv.value);
                if (s >= xi) co.pairs.push_back({pv.label, bv.label, s});
              }
              return true;
            };
            for (size_t k = start; k < base_nums.size(); ++k) {
              if (ticker.Tick()) {
                stop.store(true, std::memory_order_relaxed);
                break;
              }
              if (!visit(k) &&
                  window.LeftForGood(base_nums[k]->value.AsNumber(), +1)) {
                break;
              }
            }
            if (self) continue;
            for (size_t k = start; k-- > 0;) {
              if (ticker.Tick()) {
                stop.store(true, std::memory_order_relaxed);
                break;
              }
              if (!visit(k) &&
                  window.LeftForGood(base_nums[k]->value.AsNumber(), -1)) {
                break;
              }
            }
          }
        },
        rec);
    MergeChunks(chunks, out, &totals);
    AccumulateBusy(stats, report, "join.numeric", phase_t0);
  }

  // ---- Token path: AllPairs with length + prefix filters, plus
  // positional/suffix filters when the threshold is exact.
  const bool exact_jaccard = IsJaccardMetric(simv, q_);
  const VerifyPlan plan =
      MakeVerifyPlan(simv, q_, encoded_kernels_, PairCacheFor(simv));
  // For non-Jaccard metrics the gram filter is only a blocker; run it
  // at a slackened threshold so near-threshold true pairs survive.
  const double filter_xi = exact_jaccard ? xi : xi * filter_slack_;

  // Tokenize (parallel): normalization + gram extraction, the
  // embarrassingly parallel part. Grams come from the shared TokenCache
  // when one is installed (rounds >= 2 of an incremental run hit it
  // almost every time), else are extracted fresh. Workers write
  // disjoint slots.
  TokenCache* cache = (cache_ && cache_->q() == q_) ? cache_.get() : nullptr;
  std::vector<TokenCache::GramsPtr> shared_grams;
  std::vector<std::vector<std::string>> owned_grams;
  if (cache) {
    shared_grams.resize(texts.size());
  } else {
    owned_grams.resize(texts.size());
  }
  {
    const size_t n = texts.size();
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, DefaultGrain(n, nworkers),
        [&](size_t /*chunk*/, size_t begin, size_t end, size_t /*worker*/) {
          for (size_t k = begin; k < end; ++k) {
            std::string normalized = Normalize(texts[k]->value.ToString());
            if (cache) {
              shared_grams[k] = cache->Grams(normalized);
            } else {
              owned_grams[k] = QgramSet(normalized, q_);
            }
          }
        },
        rec);
    AccumulateBusy(stats, report, "join.tokenize", phase_t0);
  }
  auto grams_of = [&](size_t k) -> const std::vector<std::string>& {
    return cache ? *shared_grams[k] : owned_grams[k];
  };

  // Dictionary build + encoding (serial): both mutate the dictionary.
  // Ids follow ascending global gram frequency, so they do not depend
  // on the order grams are added in.
  QgramDictionary dict(q_);
  for (size_t k = 0; k < texts.size(); ++k) dict.AddGrams(grams_of(k));
  dict.Freeze();
  std::vector<TokenSet> base_sets, probe_sets;
  for (size_t k = 0; k < texts.size(); ++k) {
    std::vector<uint32_t> ids = dict.EncodeGrams(grams_of(k));
    if (ids.empty()) continue;  // Nothing to match on.
    (k < base_texts ? base_sets : probe_sets)
        .push_back({texts[k], std::move(ids)});
  }
  shared_grams.clear();
  owned_grams.clear();
  // The self-join probes its own sets in ascending size order.
  if (self) {
    std::sort(base_sets.begin(), base_sets.end(),
              [](const TokenSet& a, const TokenSet& b) {
                return a.ids.size() < b.ids.size();
              });
  }
  const std::vector<TokenSet>& probes = self ? base_sets : probe_sets;

  // Posting build (serial), in base set order; the posting ceiling is
  // applied in that same order. The self-join indexes each set's
  // prefix: since its lists are ascending, a probe that stops scanning
  // at its own position (cj >= pi below) sees exactly the lists as they
  // stood when a serial build-while-probing loop reached it. Probing a
  // base indexes every base token, so only the probe's prefix filters.
  PostingTable postings(guard.max_posting_list());
  for (size_t si = 0; si < base_sets.size(); ++si) {
    const std::vector<uint32_t>& ids = base_sets[si].ids;
    postings.Add(ids, self ? PrefixLen(ids.size(), filter_xi) : ids.size(),
                 si);
  }

  // Probe (parallel). Candidates for probe pi are base sets sharing a
  // prefix token with it and passing the length filter: one-sided
  // (|y| >= filter_xi * |x|) for the self-join, whose earlier sets are
  // never longer, two-sided against a base. Dedup markers, candidate
  // buffers, and list buffers are per-worker and reused across
  // chunks; marker values are probe indices, which are globally
  // unique, so no resets are needed. Each probe gathers its posting
  // lists first, which sizes the candidate buffer from the posting
  // lengths and prefetches the list heads before the scan. The guard
  // is hoisted to a per-probe stride, weighted by the probe's work: its
  // prefix, its candidate batch and, against a base, the gathered list
  // lengths too. Full base lists can be long while few
  // entries survive the filters, so that scan is ticked before it runs;
  // no candidate is counted yet there, so shed accounting stays exact.
  {
    const size_t n = probes.size();
    const size_t grain = DefaultGrain(n, nworkers);
    std::vector<ChunkOut> chunks(NumChunks(n, grain));
    std::vector<std::vector<size_t>> markers(
        nworkers, std::vector<size_t>(base_sets.size(), SIZE_MAX));
    std::vector<std::vector<size_t>> cand_bufs(nworkers);
    std::vector<std::vector<const PostingTable::List*>> list_bufs(nworkers);
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t worker) {
          ChunkOut& co = chunks[chunk];
          std::vector<size_t>& candidate_of = markers[worker];
          std::vector<size_t>& candidates = cand_bufs[worker];
          std::vector<const PostingTable::List*>& lists = list_bufs[worker];
          GuardTicker ticker(guard);
          for (size_t pi = begin;
               pi < end && !stop.load(std::memory_order_relaxed); ++pi) {
            const TokenSet& x = probes[pi];
            const size_t len_x = x.ids.size();
            const size_t prefix = PrefixLen(len_x, filter_xi);
            if (ticker.Tick(1 + prefix)) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            const double min_len = filter_xi * static_cast<double>(len_x);
            const double max_len =
                (self || filter_xi <= 0.0)
                    ? std::numeric_limits<double>::infinity()
                    : static_cast<double>(len_x) / filter_xi;
            postings.Gather(x.ids, prefix, &lists);
            size_t expected = 0;
            for (const PostingTable::List* list : lists) {
              if (list == nullptr) continue;
              expected += list->size();
              HERA_PREFETCH_READ(list->data());
            }
            if (!self && ticker.Tick(expected)) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            candidates.clear();
            candidates.reserve(
                std::min(expected, self ? pi : base_sets.size()));
            for (size_t k = 0; k < prefix; ++k) {
              const PostingTable::List* list = lists[k];
              if (list == nullptr) continue;
              for (const Posting& e : *list) {
                const size_t cj = e.set;
                if (self && cj >= pi) break;  // Ascending: joined later.
                if (candidate_of[cj] == pi) continue;  // Already seen.
                // Every filter sees a pair exactly once, at its first
                // shared prefix token; re-encounters would fail the
                // same (size-determined) length check, so marking the
                // pair up front changes neither the candidate set nor
                // its order.
                candidate_of[cj] = pi;
                ++co.counters.encountered;
                const double len_y =
                    static_cast<double>(base_sets[cj].ids.size());
                if (len_y < min_len || len_y > max_len) {
                  ++co.counters.pruned_length;
                  continue;
                }
                if (plan.exact_filters) {
                  int pruned = PositionalSuffixFilter(x.ids, k,
                                                      base_sets[cj].ids,
                                                      e.pos, xi);
                  if (pruned != 0) {
                    if (pruned == 1) {
                      ++co.counters.pruned_positional;
                    } else {
                      ++co.counters.pruned_suffix;
                    }
                    continue;
                  }
                }
                candidates.push_back(cj);
              }
            }

            co.counters.candidates += candidates.size();
            if (ticker.Tick(candidates.size())) {
              // This batch was counted as candidates but never reaches
              // the verify scan below — record it shed so the trip
              // boundary stays exact (candidates == verified + shed).
              co.counters.shed_candidates += candidates.size();
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            // Pull the candidates' token sets toward the cache ahead
            // of the verify scan.
            for (size_t cj : candidates) {
              HERA_PREFETCH_READ(base_sets[cj].ids.data());
            }
            for (size_t cj : candidates) {
              const TokenSet& y = base_sets[cj];
              const LabeledValue& va = *x.value;
              const LabeledValue& vb = *y.value;
              if (va.label.rid == vb.label.rid) continue;
              ++co.counters.verified;
              double s = VerifyStringPair(plan, simv, xi, x.ids, y.ids,
                                          va.value, vb.value);
              if (s >= xi) co.pairs.push_back({va.label, vb.label, s});
            }
          }
        },
        rec);
    MergeChunks(chunks, out, &totals);
    AccumulateBusy(stats, report, "join.probe", phase_t0);
  }

  const size_t nb = base_sets.size();
  const size_t token_pairs =
      self ? nb * (nb - (nb == 0 ? 0 : 1)) / 2 : probes.size() * nb;
  FinishReport(report, totals, stop.load(std::memory_order_relaxed),
               postings.shed(), token_pairs, *out);
  return Status::OK();
}

}  // namespace hera
