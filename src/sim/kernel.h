// Integer-encoded similarity kernels.
//
// The join and the verification phase already hold every string value
// as a sorted vector of dense uint32_t gram ids (QgramDictionary).
// These kernels compute the set-overlap similarity family
// — Jaccard, Dice, overlap coefficient, cosine — directly on those id
// sets, so the hot loop is an integer merge instead of a re-normalize +
// re-tokenize + string compare per call.
//
// Bit-equality contract: the dictionary encoding is injective on grams
// (unknown grams get fresh ids), so set sizes and intersection sizes
// are preserved exactly, and each SetSimilarity formula below is the
// same floating-point expression the string metrics evaluate
// (sim/string_metrics.cc, text/qgram.cc). A kernel score is therefore
// bit-identical to the corresponding string-path score — callers can
// switch paths without perturbing thresholds, merge order, or labels.
//
// Intersection strategy (IntersectSize), for BestPairScorer and the
// tests; the join does not intersect pairs of sets this way:
//   - bitmap: when both sets fit one small id window, intern the
//     smaller set into stack-resident 64-bit words and probe with
//     bit tests — no branches on the comparison ladder.
//   - gallop: when one set is much smaller, walk the small set and
//     binary-expand into the large one (O(ns log nl)).
//   - merge:  the classic two-pointer merge, otherwise.
//
// The choice depends only on the inputs' shape, and every strategy
// computes the same exact count, so it never changes a score.
//
// Thresholded verification converts the threshold into the minimum
// intersection size that can reach it (MinOverlapForThreshold,
// computed with the *same* double formula, so the conversion is exact,
// not epsilon-fudged) and abandons the count as soon as the remaining
// elements cannot reach that minimum — the paper's simv upper bound,
// |a ∩ b| <= min(|a|, |b|), applied continuously as the count
// advances. SetSimilarityBounded does this per call. The similarity
// join (simjoin/similarity_join.cc) does it once per probe instead: it
// sets the probe's ids in a dense bitmap over the whole dictionary,
// keeps one minimum per candidate size, tests each candidate's ids
// against the bitmap, and scores with FormulaOf — so its scores are
// bit-equal to SetSimilarityBounded's.

#ifndef HERA_SIM_KERNEL_H_
#define HERA_SIM_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hera {

/// The set-overlap similarity family computable on encoded gram sets.
enum class SetSimKind {
  kJaccard,  // |a∩b| / |a∪b|
  kDice,     // 2|a∩b| / (|a| + |b|)
  kOverlap,  // |a∩b| / min(|a|, |b|)
  kCosine,   // |a∩b| / sqrt(|a| |b|)
};

/// The exact similarity of `kind` for intersection size `inter` of
/// sets of sizes `na` and `nb`, both > 0. Every score in this file and
/// in the join's verify step is this one expression, so no two paths
/// can disagree in the last bit.
double FormulaOf(SetSimKind kind, size_t inter, size_t na, size_t nb);

/// Exact |a ∩ b| by two-pointer merge; inputs sorted + deduplicated.
size_t IntersectSizeMerge(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb);

/// Exact |small ∩ large| by galloping search; `small` should be the
/// shorter input (correct either way, fast only when ns << nl).
size_t IntersectSizeGallop(const uint32_t* small, size_t ns,
                           const uint32_t* large, size_t nl);

/// Id-window width (in bits) under which the bitmap path applies:
/// max(back) - min(front) must fit kBitmapBits so the word array stays
/// on the stack.
inline constexpr size_t kBitmapBits = 1024;

/// Skew ratio at which galloping replaces the merge.
inline constexpr size_t kGallopSkew = 8;

/// True when both sets span an id window of < kBitmapBits.
bool BitmapEligible(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b);

/// Exact |a ∩ b| via a stack bitmap; requires BitmapEligible(a, b)
/// and both sets non-empty.
size_t IntersectSizeBitmap(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b);

/// Exact |a ∩ b|, choosing bitmap / gallop / merge on shape.
size_t IntersectSize(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b);

/// Similarity of two encoded gram sets; bit-equal to the string-path
/// metric of the same kind and q (empty either side -> 0.0, matching
/// JaccardOfSets and the Qgram* functions).
double SetSimilarity(SetSimKind kind, const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b);

/// Sentinel returned by SetSimilarityBounded for "provably below xi".
inline constexpr double kBelowThreshold = -1.0;

/// The smallest intersection size o with sim(o, na, nb) >= xi, where
/// sim is the exact double formula of `kind` — or min(na, nb) + 1 when
/// no intersection can reach xi. Every comparison uses the same
/// floating-point expression SetSimilarity evaluates, so the bound is
/// exact: sim >= xi  <=>  |a∩b| >= MinOverlapForThreshold(...).
size_t MinOverlapForThreshold(SetSimKind kind, size_t na, size_t nb, double xi);

/// SetSimilarity with threshold-driven early exit: returns the exact
/// (bit-equal) similarity when it is >= xi, else kBelowThreshold —
/// possibly without finishing the intersection. Exact for every kind:
/// the abandon test is integer (remaining elements cannot reach
/// MinOverlapForThreshold), never a floating-point approximation.
double SetSimilarityBounded(SetSimKind kind, const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b, double xi);

/// Batched weight-row entry point: the best bounded similarity of `a`
/// against every non-null set in `bs`, ratcheting the floor upward as
/// cells land (each cell is bounded by max(floor, best so far)).
/// Returns the exact maximum whenever it is >= floor; otherwise some
/// value below floor (0.0 when nothing scored). Null entries are skipped — they
/// stand for cells the caller scores another way.
double BestSetSimilarityBounded(SetSimKind kind, const std::vector<uint32_t>& a,
                                const std::vector<const std::vector<uint32_t>*>& bs,
                                double floor);

/// Maps a metric name (ValueSimilarity::Name()) to its set kind when
/// the metric is a q-gram set similarity with gram length `q` —
/// "jaccard_q<q>", "dice_q<q>", "overlap_q<q>", "cosine_q<q>", or the
/// same wrapped as "hybrid(<kind>_q<q>)". Returns false otherwise
/// (different q, edit/Jaro/TF-IDF families, two-argument hybrids).
bool GramMetricKind(const std::string& metric_name, int q, SetSimKind* kind);

/// True when a metric name (ValueSimilarity::Name()) scores strings by
/// normalized Levenshtein — "edit", "hybrid(edit)" or
/// "hybrid(edit,<numeric>)" — so a caller holding Normalize()d text may
/// score string cells with NormalizedLevenshteinAtLeastNormalized
/// (sim/string_metrics.h), bit-equal wherever it reaches its floor.
bool IsEditMetric(const std::string& metric_name);

/// The gram length of a gram-family metric name — the q at which
/// GramMetricKind matches — or 0 for non-gram metrics (edit, Jaro,
/// TF-IDF, two-argument hybrids). Join construction uses this to index
/// at the metric's own gram size instead of assuming q = 2, which is
/// what arms the encoded-kernel verify path for q != 2 metrics.
int GramMetricSize(const std::string& metric_name);

}  // namespace hera

#endif  // HERA_SIM_KERNEL_H_
