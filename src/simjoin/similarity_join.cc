#include "simjoin/similarity_join.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "parallel/parallel_for.h"
#include "sim/kernel.h"
#include "sim/string_metrics.h"
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
  /// Token-path verifications that met xi (distinct-text pairs).
  size_t distinct_emitted = 0;

  void Fold(const JoinCounters& o) {
    candidates += o.candidates;
    verified += o.verified;
    shed_candidates += o.shed_candidates;
    encountered += o.encountered;
    pruned_length += o.pruned_length;
    pruned_positional += o.pruned_positional;
    distinct_emitted += o.distinct_emitted;
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
  report->distinct_emitted = totals.distinct_emitted;
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
  /// Kernel-eligible metric: score encoded token sets directly against
  /// the probe's bitmap (ProbeBits; bit-equal to the string path, see
  /// sim/kernel.h).
  bool use_kernel = false;
  SetSimKind kind = SetSimKind::kJaccard;
  /// Edit-family metric (IsEditMetric): score the distinct texts'
  /// normalized forms with the floor-aware banded Levenshtein.
  bool edit = false;
};

/// PPJoin positional check at the pair's first shared prefix token,
/// found at position `px` of probe `x` and `py` of indexed `y` (both
/// sorted rare-first, ids strictly ascending). The shared token
/// contributes 1 to the intersection, the suffixes past it at most
/// min(remaining).
///
/// When `uncapped` (no posting list shed an entry), x[0..px) and
/// y[0..py) share no token with the other set: each of their tokens is
/// rarer than the shared one, so it could only match below it, inside
/// x's probed prefix and y's indexed portion; such a match would have
/// put y on an earlier probed list, where the probe's dedup marker
/// would have fired first. The overlap is then exactly
/// 1 + |x[px+1..] ∩ y[py+1..]|, which is also where ProbeBits::Score
/// starts counting. A capped list can hide that earlier match, so a
/// ceiling run charges min(px, py) for the tokens below. `alpha` is
/// MinOverlapForThreshold(kJaccard, |x|, |y|, xi); pruning only when
/// the intersection provably cannot reach it keeps the filter exact:
/// every pruned pair scores < xi. Returns true when the pair is pruned.
bool PositionalFilter(size_t nx, size_t px, size_t ny, size_t py,
                      size_t alpha, bool uncapped) {
  const size_t below = uncapped ? 1 : std::min(px, py) + 1;
  return below + std::min(nx - px - 1, ny - py - 1) < alpha;
}

/// One worker's verify state for the kernel plan. The probe x's gram
/// ids are set in a dense bitmap over the whole dictionary, so a
/// candidate's overlap with x costs one bit test per candidate id. The
/// probe sets its bits before its verify loop and clears them after,
/// so the bitmap is zero between probes. The minimum overlap α that
/// reaches xi depends only on |x| and |y|, so it is computed once per
/// candidate size within a probe and shared with the positional
/// filter. Probe indices are unique within a join, so the table is
/// stamped with the probe it belongs to instead of being reset.
class ProbeBits {
 public:
  /// Every gram id is < `vocab`; every candidate has <= `max_len` ids.
  ProbeBits(size_t vocab, size_t max_len)
      : words_(vocab / 64 + 1),
        alpha_(max_len + 1),
        alpha_probe_(max_len + 1, SIZE_MAX) {}

  void Set(const std::vector<uint32_t>& x) {
    for (uint32_t id : x) words_[id >> 6] |= uint64_t{1} << (id & 63);
  }
  void Clear(const std::vector<uint32_t>& x) {
    for (uint32_t id : x) words_[id >> 6] = 0;
  }

  /// MinOverlapForThreshold(kind, nx, ny, xi) for probe `probe`.
  size_t Alpha(SetSimKind kind, size_t probe, size_t nx, size_t ny,
               double xi) {
    if (alpha_probe_[ny] != probe) {
      alpha_probe_[ny] = probe;
      alpha_[ny] = MinOverlapForThreshold(kind, nx, ny, xi);
    }
    return alpha_[ny];
  }

  /// The score of the set probe (|x| = nx) against candidate y, given
  /// that `inter` of the overlap lies in y[0..start) and the rest in
  /// y[start..]: FormulaOf(kind, |x ∩ y|, nx, |y|) when the overlap
  /// reaches `alpha`, else kBelowThreshold. The scan stops as soon as
  /// the ids left cannot lift the count to alpha.
  double Score(SetSimKind kind, size_t nx, const std::vector<uint32_t>& y,
               size_t start, size_t inter, size_t alpha) const {
    const size_t ny = y.size();
    if (alpha > std::min(nx, ny)) return kBelowThreshold;
    const uint64_t* words = words_.data();
    for (size_t j = start; j < ny && inter + (ny - j) >= alpha; ++j) {
      const uint32_t id = y[j];
      inter += (words[id >> 6] >> (id & 63)) & 1;
    }
    return inter >= alpha ? FormulaOf(kind, inter, nx, ny) : kBelowThreshold;
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<size_t> alpha_;
  std::vector<size_t> alpha_probe_;
};

/// The verifier follows from the metric's name alone: the probe bitmap
/// (ProbeBits) for a q-gram set metric with the join's q, the banded
/// Levenshtein on normalized text for the edit family, and
/// simv.Compute otherwise.
/// Every non-Compute choice returns the metric's bit-equal score
/// whenever it reaches xi, so the plan never changes which pairs are
/// emitted or their sims.
VerifyPlan MakeVerifyPlan(const ValueSimilarity& simv, int q) {
  VerifyPlan plan;
  SetSimKind kind;
  if (GramMetricKind(simv.Name(), q, &kind)) {
    plan.use_kernel = true;
    plan.kind = kind;
  }
  plan.edit = IsEditMetric(simv.Name());
  return plan;
}

/// Scores one candidate of a plan without the kernel (ProbeBits scores
/// those). Below xi the edit path returns 0.0, which callers' `s >= xi`
/// emission test rejects. `x_norm` and `y_norm` are the texts'
/// Normalize(ToString()) forms, the edit metric's own input; only the
/// edit path reads them. The edit path's score does not depend on
/// argument order; a metric's may (Monge-Elkan).
double VerifyStringPair(const VerifyPlan& plan, const ValueSimilarity& simv,
                        double xi, std::string_view x_norm,
                        std::string_view y_norm, const Value& va,
                        const Value& vb) {
  if (plan.edit) {
    return NormalizedLevenshteinAtLeastNormalized(x_norm, y_norm, xi);
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

/// The token path's values interned by exact payload: a string by its
/// text, a number by its bit pattern. The rendering is not the key, so
/// two numbers that print alike stay apart for a metric that reads the
/// number, and a number never merges with its string twin. Each
/// distinct value is tokenized, encoded, indexed and verified once.
struct DistinctValues {
  /// Per distinct value, in order of first occurrence: a representative
  /// and its occurrence count.
  std::vector<const Value*> value;
  std::vector<uint32_t> count;
  /// Per token-path value: its distinct value.
  std::vector<uint32_t> of;
};

DistinctValues Intern(const std::vector<const LabeledValue*>& texts) {
  DistinctValues d;
  d.of.reserve(texts.size());
  std::unordered_map<std::string_view, uint32_t> strings;
  std::unordered_map<uint64_t, uint32_t> numbers;
  for (const LabeledValue* lv : texts) {
    const Value& v = lv->value;
    const uint32_t next = static_cast<uint32_t>(d.value.size());
    const uint32_t id =
        v.is_string()
            ? strings.try_emplace(v.AsString(), next).first->second
            : numbers.try_emplace(std::bit_cast<uint64_t>(v.AsNumber()), next)
                  .first->second;
    if (id == next) {
      d.value.push_back(&v);
      d.count.push_back(0);
    }
    ++d.count[id];
    d.of.push_back(id);
  }
  return d;
}

/// One side of the token join at occurrence level. `occ` holds the
/// occurrences with a non-empty gram set in the order the join visits
/// them: size-sorted for the self-join, input order otherwise. `texts`
/// holds the distinct values among them in order of first appearance,
/// which is the order the distinct join indexes and probes them in.
/// The positions of side text t are pos[pos_begin[t], pos_begin[t + 1]),
/// ascending.
struct Side {
  std::vector<const LabeledValue*> occ;
  std::vector<uint32_t> text_at;
  std::vector<uint32_t> texts;
  std::vector<uint32_t> pos_begin;
  std::vector<uint32_t> pos;

  uint32_t first_pos(uint32_t t) const { return pos[pos_begin[t]]; }
  uint32_t last_pos(uint32_t t) const { return pos[pos_begin[t + 1] - 1]; }

  /// True when text t occurs in at least two records.
  bool InSeveralRecords(uint32_t t) const {
    const uint32_t rid = occ[first_pos(t)]->label.rid;
    for (uint32_t i = pos_begin[t] + 1; i < pos_begin[t + 1]; ++i) {
      if (occ[pos[i]]->label.rid != rid) return true;
    }
    return false;
  }
};

/// `order` lists indices into the token-path values in visiting order.
Side MakeSide(const std::vector<uint32_t>& order,
              const std::vector<const LabeledValue*>& texts,
              const DistinctValues& distinct) {
  Side side;
  std::vector<uint32_t> side_of(distinct.value.size(), UINT32_MAX);
  side.occ.reserve(order.size());
  side.text_at.reserve(order.size());
  for (uint32_t k : order) {
    uint32_t& t = side_of[distinct.of[k]];
    if (t == UINT32_MAX) {
      t = static_cast<uint32_t>(side.texts.size());
      side.texts.push_back(distinct.of[k]);
    }
    side.occ.push_back(texts[k]);
    side.text_at.push_back(t);
  }
  side.pos_begin.assign(side.texts.size() + 1, 0);
  for (uint32_t t : side.text_at) ++side.pos_begin[t + 1];
  std::partial_sum(side.pos_begin.begin(), side.pos_begin.end(),
                   side.pos_begin.begin());
  std::vector<uint32_t> next(side.pos_begin.begin(), side.pos_begin.end() - 1);
  side.pos.resize(order.size());
  for (uint32_t p = 0; p < side.text_at.size(); ++p) {
    side.pos[next[side.text_at[p]]++] = p;
  }
  return side;
}

/// A similar distinct pair, found by the probe loop: probe-side text
/// `from` scored `sim` >= xi against base-side text `to`, and the
/// first prefix token they share sits at `from`'s position `k`.
struct Edge {
  uint32_t from;
  uint32_t to;
  uint32_t k;
  double sim;
};

/// One probe chunk's output of the distinct join.
struct EdgeChunk {
  std::vector<Edge> edges;
  JoinCounters counters;
};

/// The similar distinct pairs as adjacency lists: for probe-side text
/// t, edges[begin[t], begin[t + 1]), sorted by k. One flat array, so
/// memory stays proportional to the distinct pairs.
struct SimilarTexts {
  struct Neighbor {
    uint32_t text;
    uint32_t k;
    double sim;
  };
  std::vector<size_t> begin;
  std::vector<Neighbor> edges;
};

SimilarTexts MakeSimilarTexts(size_t num_probe_texts,
                              std::vector<EdgeChunk>& chunks) {
  SimilarTexts similar;
  similar.begin.assign(num_probe_texts + 1, 0);
  for (const EdgeChunk& c : chunks) {
    for (const Edge& e : c.edges) ++similar.begin[e.from + 1];
  }
  std::partial_sum(similar.begin.begin(), similar.begin.end(),
                   similar.begin.begin());
  std::vector<size_t> next(similar.begin.begin(), similar.begin.end() - 1);
  similar.edges.resize(similar.begin.back());
  for (EdgeChunk& c : chunks) {
    for (const Edge& e : c.edges) {
      similar.edges[next[e.from]++] = {e.to, e.k, e.sim};
    }
    std::vector<Edge>().swap(c.edges);
  }
  for (size_t t = 0; t < num_probe_texts; ++t) {
    std::sort(similar.edges.begin() + similar.begin[t],
              similar.edges.begin() + similar.begin[t + 1],
              [](const SimilarTexts::Neighbor& a,
                 const SimilarTexts::Neighbor& b) {
                return a.k != b.k ? a.k < b.k : a.text < b.text;
              });
  }
  return similar;
}

/// Expands one probe occurrence's similar texts into its occurrence
/// pairs, in the per-occurrence join's emission order: by first shared
/// prefix position k, then by ascending candidate position (the order
/// of the posting list scanned at k). Candidates count only below
/// position `limit` and in another record. Writes the pairs to `out`
/// when kFill, else only counts them; returns the count.
template <bool kFill>
size_t ExpandProbe(const LabeledValue& probe, uint32_t text, size_t limit,
                   const SimilarTexts& similar, const Side& base,
                   std::vector<std::pair<uint32_t, double>>* group,
                   ValuePair* out) {
  size_t n = 0;
  const SimilarTexts::Neighbor* e = similar.edges.data() + similar.begin[text];
  const SimilarTexts::Neighbor* end =
      similar.edges.data() + similar.begin[text + 1];
  while (e < end) {
    const SimilarTexts::Neighbor* group_end = e;
    while (group_end < end && group_end->k == e->k) ++group_end;
    group->clear();
    for (const SimilarTexts::Neighbor* it = e; it < group_end; ++it) {
      for (uint32_t i = base.pos_begin[it->text];
           i < base.pos_begin[it->text + 1]; ++i) {
        const uint32_t pos = base.pos[i];
        if (pos >= limit) break;
        if (base.occ[pos]->label.rid == probe.label.rid) continue;
        if (kFill) {
          group->emplace_back(pos, it->sim);
        } else {
          ++n;
        }
      }
    }
    if (kFill) {
      if (group_end - e > 1) std::sort(group->begin(), group->end());
      for (const auto& [pos, sim] : *group) {
        out[n++] = {probe.label, base.occ[pos]->label, sim};
      }
    }
    e = group_end;
  }
  return n;
}

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
  return Scan(nullptr, values, simv, xi, guard, out, report);
}

Status NestedLoopJoin::JoinAB(const std::vector<LabeledValue>& probe,
                              const std::vector<LabeledValue>& base,
                              const ValueSimilarity& simv, double xi,
                              const RunGuard& guard,
                              std::vector<ValuePair>* out,
                              JoinReport* report) const {
  return Scan(&probe, base, simv, xi, guard, out, report);
}

Status NestedLoopJoin::Scan(const std::vector<LabeledValue>* probe,
                            const std::vector<LabeledValue>& base,
                            const ValueSimilarity& simv, double xi,
                            const RunGuard& guard, std::vector<ValuePair>* out,
                            JoinReport* report) const {
  HERA_FAILPOINT("simjoin.join");
  out->clear();
  // The self-join pairs each value with the ones after it; JoinAB pairs
  // each probe with every base value.
  const std::vector<LabeledValue>& outer = probe != nullptr ? *probe : base;
  ThreadPool* pool = executor();
  const bool rec = collect_worker_spans() && report != nullptr;
  const size_t n = outer.size();
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
          const LabeledValue& a = outer[i];
          for (size_t j = probe != nullptr ? 0 : i + 1; j < base.size(); ++j) {
            if (ticker.Tick()) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            const LabeledValue& b = base[j];
            if (a.label.rid == b.label.rid) continue;
            ++co.counters.candidates;
            ++co.counters.verified;
            double s = simv.Compute(a.value, b.value);
            if (s >= xi) co.pairs.push_back({a.label, b.label, s});
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
  const bool rec = collect_worker_spans() && report != nullptr;
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

  // ---- Token path: AllPairs with length + prefix filters, plus the
  // positional filter when the threshold is exact. It runs on
  // distinct values: every phase up to verification sees each distinct
  // value once, and the expansion at the end turns the similar distinct
  // pairs back into occurrence pairs, in the order a join over the
  // occurrences themselves would emit them (docs/performance.md).
  const bool exact_jaccard = IsJaccardMetric(simv, q_);
  const VerifyPlan plan = MakeVerifyPlan(simv, q_);
  // For non-Jaccard metrics the gram filter is only a blocker; run it
  // at a slackened threshold so near-threshold true pairs survive.
  const double filter_xi = exact_jaccard ? xi : xi * filter_slack_;
  const DistinctValues distinct = Intern(texts);
  const size_t nd = distinct.value.size();

  // Tokenize (parallel): normalization + gram extraction, the
  // embarrassingly parallel part. Workers write disjoint slots. The edit
  // plan keeps each normalized text for verification.
  std::vector<std::vector<std::string>> grams(nd);
  std::vector<std::string> norm(plan.edit ? nd : 0);
  {
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, nd, DefaultGrain(nd, nworkers),
        [&](size_t /*chunk*/, size_t begin, size_t end, size_t /*worker*/) {
          for (size_t t = begin; t < end; ++t) {
            std::string text = Normalize(distinct.value[t]->ToString());
            grams[t] = QgramSet(text, q_);
            if (plan.edit) norm[t] = std::move(text);
          }
        },
        rec);
    AccumulateBusy(stats, report, "join.tokenize", phase_t0);
  }
  // Dictionary build + encoding (serial): both mutate the dictionary.
  // Ids follow ascending global gram frequency, counted per occurrence,
  // so they do not depend on the order grams are added in.
  QgramDictionary dict(q_);
  for (size_t t = 0; t < nd; ++t) dict.AddGrams(grams[t], distinct.count[t]);
  dict.Freeze();
  std::vector<std::vector<uint32_t>> ids(nd);
  for (size_t t = 0; t < nd; ++t) ids[t] = dict.EncodeGrams(grams[t]);
  std::vector<std::vector<std::string>>().swap(grams);

  // Occurrence sides. An empty gram set has nothing to match on. The
  // self-join visits its occurrences in ascending gram-set size, sorted
  // with the same std::sort and size-only comparator over the same
  // sequence of sizes as a per-occurrence join, so the permutation (and
  // with it the emission order) is the same.
  auto order_of = [&](size_t begin, size_t end) {
    std::vector<uint32_t> order;
    for (size_t k = begin; k < end; ++k) {
      if (!ids[distinct.of[k]].empty()) {
        order.push_back(static_cast<uint32_t>(k));
      }
    }
    return order;
  };
  std::vector<uint32_t> base_order = order_of(0, base_texts);
  if (self) {
    std::sort(base_order.begin(), base_order.end(),
              [&](uint32_t a, uint32_t b) {
                return ids[distinct.of[a]].size() < ids[distinct.of[b]].size();
              });
  }
  const Side base_side = MakeSide(base_order, texts, distinct);
  std::vector<uint32_t>().swap(base_order);
  const Side probe_side =
      self ? Side{} : MakeSide(order_of(base_texts, texts.size()), texts,
                               distinct);
  const Side& probes = self ? base_side : probe_side;
  auto ids_of = [&](const Side& side,
                    size_t t) -> const std::vector<uint32_t>& {
    return ids[side.texts[t]];
  };
  auto value_of = [&](const Side& side, size_t t) -> const Value& {
    return *distinct.value[side.texts[t]];
  };
  auto norm_of = [&](const Side& side, size_t t) -> std::string_view {
    return plan.edit ? std::string_view(norm[side.texts[t]])
                     : std::string_view();
  };

  // Posting build (serial), in base text order; the posting ceiling
  // caps distinct-text entries, in that same order. The self-join
  // indexes each text's prefix: since its texts ascend in size, a probe
  // that stops scanning at its own index (cj >= pi below) sees exactly
  // the lists as they stood when a serial build-while-probing loop
  // reached it. Probing a base indexes every base token, so only the
  // probe's prefix filters.
  const size_t nb = base_side.texts.size();
  PostingTable postings(guard.max_posting_list());
  for (size_t si = 0; si < nb; ++si) {
    const std::vector<uint32_t>& y = ids_of(base_side, si);
    postings.Add(y, self ? PrefixLen(y.size(), filter_xi) : y.size(), si);
  }
  // A shed entry voids the positional filter's disjointness argument
  // (PositionalFilter), so it is settled here, before the probe. The
  // kernel's verify scan rests on the same argument: uncapped, it
  // starts after the first shared token with that token counted;
  // capped, it scans the whole candidate.
  const bool uncapped = postings.shed() == 0;

  // Probe (parallel), one probe per distinct text. Candidates for probe
  // pi are base texts sharing a prefix token with it and passing the
  // length filter: one-sided (|y| >= filter_xi * |x|) for the
  // self-join, whose earlier texts are never longer, two-sided against
  // a base. The self-join also pairs a text with its own other
  // occurrences when they lie in another record: the per-occurrence
  // join found those at k = 0. Dedup markers, candidate buffers, and
  // list buffers are per-worker and reused across chunks; marker values
  // are probe indices, which are globally unique, so no resets are
  // needed. Each probe gathers its posting lists first, which sizes the
  // candidate buffer from the posting lengths and prefetches the list
  // heads before the scan. The guard is hoisted to a per-probe stride,
  // weighted by the probe's work: its prefix, its candidate batch and,
  // against a base, the gathered list lengths too. Full base lists can
  // be long while few entries survive the filters, so that scan is
  // ticked before it runs; no candidate is counted yet there, so shed
  // accounting stays exact. The kernel plan scores candidates against
  // a per-worker ProbeBits, which also serves the positional filter's α.
  struct Candidate {
    size_t set;
    size_t k;    // Position of the first shared prefix token in the probe.
    size_t pos;  // Its position in the candidate.
  };
  const size_t np = probes.texts.size();
  std::vector<EdgeChunk> edge_chunks;
  {
    const size_t grain = DefaultGrain(np, nworkers);
    edge_chunks.resize(NumChunks(np, grain));
    std::vector<std::vector<size_t>> markers(
        nworkers, std::vector<size_t>(nb, SIZE_MAX));
    std::vector<std::vector<Candidate>> cand_bufs(nworkers);
    std::vector<std::vector<const PostingTable::List*>> list_bufs(nworkers);
    std::vector<ProbeBits> probe_bits;
    if (plan.use_kernel) {
      size_t max_len = 0;
      for (size_t si = 0; si < nb; ++si) {
        max_len = std::max(max_len, ids_of(base_side, si).size());
      }
      probe_bits.assign(nworkers, ProbeBits(dict.vocab_size(), max_len));
    }
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, np, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t worker) {
          EdgeChunk& co = edge_chunks[chunk];
          std::vector<size_t>& candidate_of = markers[worker];
          std::vector<Candidate>& candidates = cand_bufs[worker];
          std::vector<const PostingTable::List*>& lists = list_bufs[worker];
          ProbeBits* bits = plan.use_kernel ? &probe_bits[worker] : nullptr;
          GuardTicker ticker(guard);
          for (size_t pi = begin;
               pi < end && !stop.load(std::memory_order_relaxed); ++pi) {
            const std::vector<uint32_t>& x = ids_of(probes, pi);
            const size_t len_x = x.size();
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
            postings.Gather(x, prefix, &lists);
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
            candidates.reserve(std::min(expected, self ? pi + 1 : nb));
            if (self && base_side.InSeveralRecords(static_cast<uint32_t>(pi))) {
              candidates.push_back({pi, 0, 0});
            }
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
                const std::vector<uint32_t>& y = ids_of(base_side, cj);
                const double len_y = static_cast<double>(y.size());
                if (len_y < min_len || len_y > max_len) {
                  ++co.counters.pruned_length;
                  continue;
                }
                if (exact_jaccard &&
                    PositionalFilter(
                        len_x, k, y.size(), e.pos,
                        bits->Alpha(plan.kind, pi, len_x, y.size(), xi),
                        uncapped)) {
                  ++co.counters.pruned_positional;
                  continue;
                }
                candidates.push_back({cj, k, e.pos});
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
            for (const Candidate& c : candidates) {
              HERA_PREFETCH_READ(ids_of(base_side, c.set).data());
            }
            const uint32_t from = static_cast<uint32_t>(pi);
            if (bits != nullptr) bits->Set(x);
            for (const Candidate& c : candidates) {
              const uint32_t to = static_cast<uint32_t>(c.set);
              const std::vector<uint32_t>& y = ids_of(base_side, to);
              ++co.counters.verified;
              double s;
              if (bits != nullptr) {
                // Uncapped, the first shared token is counted and nothing
                // below it is shared (PositionalFilter); capped, all of y
                // is read.
                const size_t alpha =
                    bits->Alpha(plan.kind, pi, len_x, y.size(), xi);
                s = uncapped ? bits->Score(plan.kind, len_x, y, c.pos + 1, 1,
                                           alpha)
                             : bits->Score(plan.kind, len_x, y, 0, 0, alpha);
              } else {
                s = VerifyStringPair(plan, simv, xi, norm_of(probes, from),
                                     norm_of(base_side, to),
                                     value_of(probes, from),
                                     value_of(base_side, to));
              }
              if (s >= xi) {
                ++co.counters.distinct_emitted;
                co.edges.push_back({from, to, static_cast<uint32_t>(c.k), s});
              }
              // Equal-size texts interleave in the size-sorted order,
              // so y also probes x when one of y's occurrences comes
              // after x's first. That orientation shares the same first
              // prefix token, at y's position, and passes the same
              // filters. The kernel and edit scores are symmetric, so
              // it reuses s; only the general plan verifies it again
              // (Monge-Elkan is not symmetric). No plan counts it: the
              // counters describe the distinct pair once.
              if (!self || to == from || y.size() != len_x ||
                  base_side.last_pos(to) <= base_side.first_pos(from)) {
                continue;
              }
              const double r =
                  plan.use_kernel || plan.edit
                      ? s
                      : VerifyStringPair(plan, simv, xi, norm_of(base_side, to),
                                         norm_of(probes, from),
                                         value_of(base_side, to),
                                         value_of(probes, from));
              if (r >= xi) {
                co.edges.push_back({to, from, static_cast<uint32_t>(c.pos), r});
              }
            }
            if (bits != nullptr) bits->Clear(x);
          }
        },
        rec);
    for (const EdgeChunk& c : edge_chunks) totals.Fold(c.counters);
    AccumulateBusy(stats, report, "join.probe", phase_t0);
  }
  const SimilarTexts similar = MakeSimilarTexts(np, edge_chunks);

  // Expand (parallel, two passes) unless the guard already tripped, in
  // which case the distinct pairs are incomplete and no token pair is
  // emitted. Pass one counts each probe occurrence's pairs and ticks the
  // guard by that count before they are kept, since 200 records of one
  // text are one distinct pair but 19,900 occurrence pairs; a trip keeps
  // the probes before the first one not counted, a prefix of the
  // emission order. Pass two writes each probe's pairs into its slice of
  // `out` in place. The self-join pairs a probe only with occurrences
  // before it; a base is paired in full.
  if (!stop.load(std::memory_order_relaxed)) {
    const size_t n = probes.occ.size();
    const size_t grain = DefaultGrain(n, nworkers);
    const size_t num_chunks = NumChunks(n, grain);
    std::vector<size_t> offsets(n + 1, 0);
    std::vector<size_t> reached(num_chunks);
    for (size_t c = 0; c < num_chunks; ++c) reached[c] = c * grain;
    std::vector<std::vector<std::pair<uint32_t, double>>> groups(nworkers);
    auto limit_of = [&](size_t p) { return self ? p : base_side.occ.size(); };
    const double phase_t0 = join_timer.ElapsedMicros();
    ParallelRunStats stats = ParallelChunks(
        pool, n, grain,
        [&](size_t chunk, size_t begin, size_t end, size_t worker) {
          GuardTicker ticker(guard);
          for (size_t p = begin;
               p < end && !stop.load(std::memory_order_relaxed); ++p) {
            const size_t count = ExpandProbe<false>(
                *probes.occ[p], probes.text_at[p], limit_of(p), similar,
                base_side, &groups[worker], nullptr);
            if (ticker.Tick(1 + count)) {
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            offsets[p + 1] = count;
            reached[chunk] = p + 1;
          }
        },
        rec);
    AccumulateBusy(stats, report, "join.expand", phase_t0);
    size_t kept = n;
    for (size_t c = 0; c < num_chunks; ++c) {
      if (reached[c] < std::min(n, (c + 1) * grain)) {
        kept = reached[c];
        break;
      }
    }
    std::partial_sum(offsets.begin(), offsets.begin() + kept + 1,
                     offsets.begin());
    const size_t first = out->size();
    out->resize(first + offsets[kept]);
    ValuePair* slots = out->data() + first;
    const double fill_t0 = join_timer.ElapsedMicros();
    ParallelRunStats fill_stats = ParallelChunks(
        pool, kept, DefaultGrain(kept, nworkers),
        [&](size_t /*chunk*/, size_t begin, size_t end, size_t worker) {
          for (size_t p = begin; p < end; ++p) {
            ExpandProbe<true>(*probes.occ[p], probes.text_at[p], limit_of(p),
                              similar, base_side, &groups[worker],
                              slots + offsets[p]);
          }
        },
        rec);
    AccumulateBusy(fill_stats, report, "join.expand", fill_t0);
  }

  const size_t token_pairs = self ? nb * (nb - (nb == 0 ? 0 : 1)) / 2 : np * nb;
  FinishReport(report, totals, stop.load(std::memory_order_relaxed),
               postings.shed(), token_pairs, *out);
  if (report != nullptr) report->distinct_values = nd;
  return Status::OK();
}

}  // namespace hera
