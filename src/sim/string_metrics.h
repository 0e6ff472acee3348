// String similarity metric implementations.
//
// The paper's default is Jaccard over q-gram sets with q = 2; it also
// names edit distance, cosine, and Soft TF-IDF as drop-in alternatives.
// Every metric here normalizes input via text/normalize first and
// returns scores in [0, 1].

#ifndef HERA_SIM_STRING_METRICS_H_
#define HERA_SIM_STRING_METRICS_H_

#include <string_view>

namespace hera {

class TfIdfModel;

/// Jaccard similarity of q-gram sets: |G1 ∩ G2| / |G1 ∪ G2|.
double QgramJaccard(std::string_view a, std::string_view b, int q);

/// Dice coefficient of q-gram sets: 2|G1 ∩ G2| / (|G1| + |G2|).
double QgramDice(std::string_view a, std::string_view b, int q);

/// Overlap coefficient of q-gram sets: |G1 ∩ G2| / min(|G1|, |G2|).
double QgramOverlap(std::string_view a, std::string_view b, int q);

/// Cosine over q-gram sets: |G1 ∩ G2| / sqrt(|G1| |G2|).
double QgramCosine(std::string_view a, std::string_view b, int q);

/// Levenshtein edit distance (unit costs). Raw count, not normalized.
/// Runs the Myers bit-parallel kernel (Hyyrö's formulation; 64-bit
/// blocks for patterns longer than one word) on every kernel tier: it
/// is plain 64-bit scalar code.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// The O(mn) single-row DP: the reference implementation the Myers
/// kernel is fuzzed against, exposed for tests and bench_kernel.
size_t LevenshteinDistanceDp(std::string_view a, std::string_view b);

/// Banded variant: the exact distance when it is <= limit, else any
/// value > limit (callers must only branch on "> limit"). The band is
/// a column early-exit — score minus remaining columns can only shrink
/// by one per column, so once it exceeds limit the final distance
/// provably does too.
size_t LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                                  size_t limit);

/// 1 - dist / max(|a|, |b|); 1.0 for two empty strings.
double NormalizedLevenshtein(std::string_view a, std::string_view b);

/// NormalizedLevenshtein with a floor: returns the exact (bit-equal)
/// score when it is >= floor, else 0.0 — usually without paying the
/// full edit-distance cost. The largest distance that can still reach
/// the floor comes in closed form from (1 - floor) * max(|a|, |b|),
/// corrected with the same double expression NormalizedLevenshtein
/// evaluates, so the conversion is exact; then LevenshteinDistanceBounded
/// runs against it (a length gap over the budget bails before Myers).
double NormalizedLevenshteinAtLeast(std::string_view a, std::string_view b,
                                    double floor);

/// NormalizedLevenshteinAtLeast over inputs already in normal form
/// (Normalize applied by the caller — e.g. a memo in the weight
/// loops). Normalize is idempotent, so this is the same function with
/// the normalization hoisted out.
double NormalizedLevenshteinAtLeastNormalized(std::string_view na,
                                              std::string_view nb,
                                              double floor);

/// Jaro similarity.
double Jaro(std::string_view a, std::string_view b);

/// Jaro–Winkler with standard prefix scale 0.1 and max prefix 4.
double JaroWinkler(std::string_view a, std::string_view b);

/// Monge–Elkan: mean over tokens of `a` of the best Jaro–Winkler match
/// in `b`, symmetrized by taking the max of both directions.
double MongeElkan(std::string_view a, std::string_view b);

/// Cosine over TF-IDF-weighted word vectors.
double TfIdfCosine(std::string_view a, std::string_view b, const TfIdfModel& model);

/// Soft TF-IDF (Cohen et al.): TF-IDF cosine where tokens are matched
/// softly by Jaro–Winkler above `theta` rather than exact equality.
double SoftTfIdf(std::string_view a, std::string_view b, const TfIdfModel& model,
                 double theta = 0.9);

}  // namespace hera

#endif  // HERA_SIM_STRING_METRICS_H_
