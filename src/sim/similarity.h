// ValueSimilarity: the black-box simv(v1, v2) of Definition 3.
//
// All implementations return a score in [0, 1], where 1 is identity.
// Null values have similarity 0 against everything (including null):
// absence of information is never positive evidence.

#ifndef HERA_SIM_SIMILARITY_H_
#define HERA_SIM_SIMILARITY_H_

#include <memory>
#include <string>
#include <string_view>

#include "sim/value.h"

namespace hera {

/// The set-overlap similarity family computable on encoded gram sets.
enum class SetSimKind {
  kJaccard,  // |a∩b| / |a∪b|
  kDice,     // 2|a∩b| / (|a| + |b|)
  kOverlap,  // |a∩b| / min(|a|, |b|)
  kCosine,   // |a∩b| / sqrt(|a| |b|)
};

/// \brief What a caller may assume about a metric's scores beyond
/// Compute(). The join picks its filter, verifier and numeric window
/// from these, and BestPairScorer its cell kernel; each such path
/// returns Compute's bit-equal score wherever it reaches the caller's
/// threshold. The defaults assume nothing: every pair is scored by
/// Compute, and numbers are matched by their canonical rendering.
struct SimilarityTraits {
  /// How a metric scores two numbers.
  enum class Numbers {
    kAsText,    // Like any other value, by its canonical rendering.
    kRelative,  // 1 - |a-b| / max(|a|, |b|), clamped to [0, 1].
    kAbsolute,  // 1 - |a-b| / tolerance, clamped to [0, 1].
  };

  /// A pair of two numbers scores as `numbers` says. Every other
  /// non-null pair, and a number pair under kAsText, may follow one
  /// declared family over the two values' Normalize()d renderings:
  /// `set_kind` over their q-gram sets when gram_q > 0, or
  /// NormalizedLevenshtein when `edit`.
  int gram_q = 0;
  SetSimKind set_kind = SetSimKind::kJaccard;
  bool edit = false;
  Numbers numbers = Numbers::kAsText;
  /// The kAbsolute tolerance; unused otherwise.
  double tolerance = 0.0;
};

/// \brief Abstract similarity over typed values. Thread-compatible:
/// Compute() is const and implementations hold no mutable state.
class ValueSimilarity {
 public:
  virtual ~ValueSimilarity() = default;

  /// simv(a, b) in [0, 1].
  virtual double Compute(const Value& a, const Value& b) const = 0;

  /// Identifier for configs / registry lookup (e.g. "jaccard_q2").
  virtual std::string Name() const = 0;

  /// What callers may assume about Compute (see SimilarityTraits). A
  /// metric that declares nothing is only ever scored by Compute.
  virtual SimilarityTraits Traits() const { return {}; }
};

using ValueSimilarityPtr = std::shared_ptr<const ValueSimilarity>;

}  // namespace hera

#endif  // HERA_SIM_SIMILARITY_H_
