// Per-cell bounded weight computation for dense best-pair loops.
//
// The verifier's KM weight matrix (core/verifier.cc + bipartite.cc) is
// assembled from join-verified pair similarities and never recomputes a
// metric — the kernel acceleration for that path lives in the join
// (simjoin/similarity_join.cc). The loops that DO score every cell of a
// dense value matrix are the record/cluster similarity functions of the
// baselines: best value-pair similarity per attribute
// (baselines/homogeneous.cc) or per value of the smaller record
// (blocking/token_blocking.cc). BestPairScorer runs those loops on the
// integer kernels (sim/kernel.h) with per-cell upper-bound skipping: a
// cell that provably cannot reach the caller's floor — the running
// best, or ξ — is abandoned mid-merge and never fully computed.
//
// Matrix calls are batched: the b side is encoded once per call (one
// memo lookup per value instead of one per cell) and every row runs
// through BestSetSimilarityBounded, which ratchets the floor up to the
// row's running best as cells land. Edit-family metrics get the
// analogous treatment: the b side is normalized once, then each cell
// runs the banded Myers kernel through
// NormalizedLevenshteinAtLeastNormalized with the running best as the
// floor, so hopeless cells bail on the length/histogram pre-filters
// without paying any DP.
//
// Exactness contract: BestAtLeast returns the exact (bit-equal to a
// simv.Compute loop) maximum whenever that maximum is >= floor; when
// every cell is below floor the return value is < floor but not
// necessarily the true maximum. A caller that consumes the result only
// through a `best >= floor` gate — which is what every dense loop here
// does, per Definition 5's ξ cutoff — therefore observes the scores,
// sums, and labels a plain simv.Compute loop would give.

#ifndef HERA_MATCHING_WEIGHT_KERNEL_H_
#define HERA_MATCHING_WEIGHT_KERNEL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/kernel.h"
#include "sim/similarity.h"
#include "sim/value.h"
#include "text/qgram.h"

namespace hera {

/// \brief Best value-pair similarity with per-cell threshold skipping.
///
/// Picks the cell kernel from `simv.Traits()`: a metric that declares
/// a q-gram set family scores string cells via SetSimilarityBounded on
/// memoized dictionary encodings at its q; one that declares the edit
/// family scores them via the banded Myers kernel with length and
/// histogram pre-filters. Everything else (metrics that declare
/// neither, number/number cells of a metric with a number rule) falls
/// back to simv.Compute. Not thread-safe: one scorer per resolution
/// loop, like the metric token caches.
class BestPairScorer {
 public:
  explicit BestPairScorer(const ValueSimilarity& simv);

  /// Max over cells (a_i, b_j) of simv.Compute, exact when >= floor
  /// (see the contract above). Null values score 0, as in the metrics.
  double BestAtLeast(const std::vector<Value>& a, const std::vector<Value>& b,
                     double floor);

  /// One-row version: max over simv.Compute(a, b_j).
  double BestAtLeast(const Value& a, const std::vector<Value>& b, double floor);

  /// True when the metric was recognized and cells use the set kernel.
  bool kernel_active() const { return kernel_; }

  /// True when cells use the bounded edit-distance kernel.
  bool edit_active() const { return edit_; }

 private:
  /// Encoded gram set of Normalize(v.ToString()), memoized by text
  /// (content-addressed, so cluster merges never invalidate). Beyond
  /// the memo ceiling the encoding lands in `*overflow` instead — the
  /// caller reserves one slot per value up front, so the returned
  /// references stay stable for the whole batch.
  const std::vector<uint32_t>& Encoded(const Value& v,
                                       std::vector<std::vector<uint32_t>>* overflow);

  /// Builds the batched b-side view into eb_/eb_overflow_: one encoded
  /// set pointer per value, nullptr for nulls.
  void EncodeSide(const std::vector<Value>& b);

  /// Best kernel-scored row of the matrix: a against the pre-encoded b
  /// side, floor-ratcheted. Falls back per cell for hybrid
  /// number/number pairs.
  double KernelRow(const Value& va, const std::vector<Value>& b, double floor);

  /// Best edit-scored row against the pre-normalized b side.
  double EditRow(const Value& va, const std::vector<Value>& b, double floor);

  /// Pre-normalizes the b side into btext_/btext_null_.
  void NormalizeSide(const std::vector<Value>& b);

  const ValueSimilarity& simv_;
  bool kernel_ = false;
  bool edit_ = false;
  bool hybrid_ = false;  // Number/number cells route to simv.Compute.
  SetSimKind kind_ = SetSimKind::kJaccard;
  QgramDictionary dict_;
  std::unordered_map<std::string, std::vector<uint32_t>> encoded_;
  // Batch views, reused across calls to avoid per-row allocation. The
  // overflow vector backs encodings past the memo ceiling; EncodeSide
  // reserves capacity for the whole side so pointers into it never
  // move.
  std::vector<const std::vector<uint32_t>*> eb_;
  std::vector<std::vector<uint32_t>> eb_overflow_;
  std::vector<std::vector<uint32_t>> row_overflow_;
  std::vector<std::string> btext_;
  std::vector<char> btext_null_;
};

}  // namespace hera

#endif  // HERA_MATCHING_WEIGHT_KERNEL_H_
