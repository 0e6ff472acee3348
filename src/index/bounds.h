// Record-similarity bounds for candidate generation (Algorithm 1,
// Equations 3–4, Fig 5).
//
// Given the index pairs of a record pair (R_i, R_j):
//   1. Refined field set V'_ij — per field pair, keep the value pair
//      with maximum similarity (== the field similarity, Definition 3).
//   2. Upper bound: for each field of R_i, the max-similarity pair
//      covering it (Algorithm 1 keys flagU on (rid1, fid1)); the true
//      matching assigns each field at most one pair of at most that
//      similarity. We additionally take the same sum over R_j's fields
//      and use the smaller — still a valid upper bound, strictly
//      tighter.
//   3. Lower bound: weight of the greedy one-to-one matching over V'
//      in descending similarity. (Deviation from the paper's literal
//      "min-similarity pair per multiple field" construction, which is
//      not a valid lower bound when several multiple fields share a
//      partner; the greedy matching is always achievable, so
//      Low <= Sim <= Up holds unconditionally.)
//
// All three read the pairs in input order. Up is summed from the first
// pair per field, which is the field's maximum, so it needs neither V'
// nor Low and is computed first: most groups fail Up >= δ and stop
// there. Since every pair's similarity is at most 1, Up is at most the
// number of distinct covered left fields over min(|R_i|, |R_j|), so a
// field-count pre-check could prune nothing the Up scan does not. The
// greedy matching over the pairs takes exactly the pairs it takes over
// V' (a pair outside V' repeats an earlier pair's field pair, whose
// left or right field is then already used), so Low needs no V'
// either; V' is built only when a direct merge needs it.
//
// When no field is covered by more than one pair in V' (no "multiple
// field"), V' is itself the optimal matching and Up == Low == Sim.
// Callers test `upper == lower`, which pins Sim exactly whether or not
// a multiple field exists; but V' is a one-to-one matching only when
// no field is covered twice (see the CHANGES.md FOUND note on the
// engine's direct-merge branch).

#ifndef HERA_INDEX_BOUNDS_H_
#define HERA_INDEX_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "index/value_pair_index.h"

namespace hera {

/// Output of ComputeBounds.
struct BoundResult {
  double upper = 0.0;
  double lower = 0.0;
  /// V'_ij: one entry per similar field pair, carrying the field
  /// similarity; input order (descending similarity) is preserved.
  std::vector<IndexedPair> refined;
};

/// \brief The bounds of one group at a time, without allocating once its
/// per-field marks cover the fids seen.
///
/// `pairs` must all belong to the same (rid1, rid2) group, sorted by
/// descending similarity (as ValuePairIndex::PairsInto writes them).
/// `num_fields_i` / `num_fields_j` are |R_i| and |R_j| — the field
/// counts of the two super records (the min normalizes the bounds).
/// Fields are marked in arrays indexed by fid, each mark a stamp of the
/// call that set it, so no call clears anything. One GroupBounds serves
/// one thread.
class GroupBounds {
 public:
  /// Up (Eq. 3). `tight` false reproduces Algorithm 1 exactly — the sum
  /// of per-field maxima over the *left* record only (flagU is keyed on
  /// (rid1, fid1)); true additionally bounds by the right side's sum
  /// and takes the smaller, a strictly tighter and still sound bound
  /// that resolves more pairs without verification (ablation:
  /// HeraOptions::tight_bounds). 0 for no pairs.
  double Upper(std::span<const IndexedPair> pairs, size_t num_fields_i,
               size_t num_fields_j, bool tight);

  /// Low (Eq. 4): the weight of the greedy one-to-one matching in
  /// input order, normalized like Up. 0 for no pairs.
  double Lower(std::span<const IndexedPair> pairs, size_t num_fields_i,
               size_t num_fields_j);

  /// Writes V'_ij into `*refined` (cleared first): the first pair of
  /// each (left fid, right fid) combination, in input order.
  void Refine(std::span<const IndexedPair> pairs,
              std::vector<IndexedPair>* refined);

 private:
  /// A stamp no mark holds yet.
  uint32_t NextStamp();

  uint32_t stamp_ = 0;
  std::vector<uint32_t> left_;   ///< Per left fid.
  std::vector<uint32_t> right_;  ///< Per right fid.
  std::vector<uint32_t> cell_;   ///< Per (left fid, right fid), row-major.
};

/// \brief Computes Up/Low (Eq. 3–4) and V' from the index pairs of one
/// record pair: all three steps of GroupBounds on a fresh instance.
BoundResult ComputeBounds(std::span<const IndexedPair> pairs,
                          size_t num_fields_i, size_t num_fields_j,
                          bool tight = false);

}  // namespace hera

#endif  // HERA_INDEX_BOUNDS_H_
