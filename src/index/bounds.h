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
// When no field is covered by more than one pair in V' (no "multiple
// field"), V' is itself the optimal matching and Up == Low == Sim.
// Callers test `upper == lower`, which pins Sim exactly whether or not
// a multiple field exists; but V' is a one-to-one matching only when
// no field is covered twice (see the CHANGES.md FOUND note on the
// engine's direct-merge branch).

#ifndef HERA_INDEX_BOUNDS_H_
#define HERA_INDEX_BOUNDS_H_

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

/// \brief Computes Up/Low (Eq. 3–4) from the index pairs of one record
/// pair.
///
/// `pairs` must all belong to the same (rid1, rid2) group, sorted by
/// descending similarity (as returned by ValuePairIndex::PairsFor).
/// `num_fields_i` / `num_fields_j` are |R_i| and |R_j| — the field
/// counts of the two super records (the min normalizes the bounds).
///
/// `tight` selects the upper bound: false (default) reproduces
/// Algorithm 1 exactly — the sum of per-field maxima over the *left*
/// record only (flagU is keyed on (rid1, fid1)); true additionally
/// bounds by the right side's sum and takes the smaller, a strictly
/// tighter and still sound bound that resolves more pairs without
/// verification (ablation: HeraOptions::tight_bounds).
BoundResult ComputeBounds(const std::vector<IndexedPair>& pairs,
                          size_t num_fields_i, size_t num_fields_j,
                          bool tight = false);

}  // namespace hera

#endif  // HERA_INDEX_BOUNDS_H_
