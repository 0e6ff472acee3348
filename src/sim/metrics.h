// Concrete ValueSimilarity implementations over the Value model.

#ifndef HERA_SIM_METRICS_H_
#define HERA_SIM_METRICS_H_

#include <memory>
#include <string>

#include "sim/similarity.h"
#include "text/token_cache.h"

namespace hera {

class TfIdfModel;

/// \brief Jaccard over q-gram sets — the paper's default (q = 2).
///
/// Numbers are compared via their canonical string rendering; nulls
/// score 0 against everything.
///
/// Tokenization is served from an internal TokenCache (as are the
/// other gram-set metrics below): each distinct normalized text is
/// q-grammed once per metric instance instead of once per Compute
/// call. Caching never changes scores — a cached gram set is the exact
/// QgramSet the uncached path would extract.
class JaccardSimilarity : public ValueSimilarity {
 public:
  explicit JaccardSimilarity(int q = 2);
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override;
  SimilarityTraits Traits() const override {
    return {.gram_q = q_, .set_kind = SetSimKind::kJaccard};
  }
  int q() const { return q_; }

 private:
  int q_;
  std::shared_ptr<TokenCache> cache_;
};

/// Normalized Levenshtein (1 - dist/maxlen).
class EditSimilarity : public ValueSimilarity {
 public:
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override { return "edit"; }
  SimilarityTraits Traits() const override { return {.edit = true}; }
};

/// Jaro–Winkler.
class JaroWinklerSimilarity : public ValueSimilarity {
 public:
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override { return "jaro_winkler"; }
};

/// Cosine over q-gram sets (TokenCache-served, see JaccardSimilarity).
class CosineSimilarity : public ValueSimilarity {
 public:
  explicit CosineSimilarity(int q = 2);
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override;
  SimilarityTraits Traits() const override {
    return {.gram_q = q_, .set_kind = SetSimKind::kCosine};
  }

 private:
  int q_;
  std::shared_ptr<TokenCache> cache_;
};

/// Dice coefficient over q-gram sets (TokenCache-served).
class DiceSimilarity : public ValueSimilarity {
 public:
  explicit DiceSimilarity(int q = 2);
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override;
  SimilarityTraits Traits() const override {
    return {.gram_q = q_, .set_kind = SetSimKind::kDice};
  }

 private:
  int q_;
  std::shared_ptr<TokenCache> cache_;
};

/// Overlap coefficient over q-gram sets (TokenCache-served).
class OverlapSimilarity : public ValueSimilarity {
 public:
  explicit OverlapSimilarity(int q = 2);
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override;
  SimilarityTraits Traits() const override {
    return {.gram_q = q_, .set_kind = SetSimKind::kOverlap};
  }

 private:
  int q_;
  std::shared_ptr<TokenCache> cache_;
};

/// Symmetrized Monge–Elkan over word tokens (good for multi-word names).
class MongeElkanSimilarity : public ValueSimilarity {
 public:
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override { return "monge_elkan"; }
};

/// Soft TF-IDF; holds a shared corpus model.
class SoftTfIdfSimilarity : public ValueSimilarity {
 public:
  SoftTfIdfSimilarity(std::shared_ptr<const TfIdfModel> model, double theta = 0.9)
      : model_(std::move(model)), theta_(theta) {}
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override { return "soft_tfidf"; }

 private:
  std::shared_ptr<const TfIdfModel> model_;
  double theta_;
};

/// \brief Relative-difference similarity for numbers:
/// 1 - |a-b| / max(|a|, |b|), clamped to [0,1]; exact equality -> 1.
class NumericSimilarity : public ValueSimilarity {
 public:
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override { return "numeric"; }
  SimilarityTraits Traits() const override {
    return {.numbers = SimilarityTraits::Numbers::kRelative};
  }
};

/// \brief Absolute-tolerance similarity for identifier-like numbers
/// (years, ids): 1 - |a-b| / tolerance, clamped to [0,1]. Relative
/// difference is wrong for such values — 1973 and 2024 are 97% "similar"
/// relatively but denote entirely different things.
class ScaledNumericSimilarity : public ValueSimilarity {
 public:
  explicit ScaledNumericSimilarity(double tolerance) : tolerance_(tolerance) {}
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override;
  SimilarityTraits Traits() const override {
    return {.numbers = SimilarityTraits::Numbers::kAbsolute,
            .tolerance = tolerance_};
  }
  double tolerance() const { return tolerance_; }

 private:
  double tolerance_;
};

/// \brief Type-dispatching similarity: number pairs -> the numeric
/// metric (relative difference by default), strings -> the wrapped
/// string metric, mixed types -> string metric over canonical
/// renderings. This is the "black-box per data type" composition the
/// paper describes.
class HybridSimilarity : public ValueSimilarity {
 public:
  /// `numeric_metric` defaults to NumericSimilarity when null.
  explicit HybridSimilarity(ValueSimilarityPtr string_metric,
                            ValueSimilarityPtr numeric_metric = nullptr)
      : string_metric_(std::move(string_metric)),
        numeric_metric_(std::move(numeric_metric)) {}
  double Compute(const Value& a, const Value& b) const override;
  std::string Name() const override;
  /// The string metric's family with the numeric metric's number
  /// rule; the default traits when the numeric metric declares none.
  SimilarityTraits Traits() const override;

 private:
  ValueSimilarityPtr string_metric_;
  ValueSimilarityPtr numeric_metric_;  // Null -> default_numeric_.
  NumericSimilarity default_numeric_;
};

/// Looks up a metric by name: "jaccard_q<N>", "edit", "jaro_winkler",
/// "cosine_q<N>", "dice_q<N>", "overlap_q<N>", "monge_elkan",
/// "numeric", "numeric_tol<T>", "hybrid(<string>)", or
/// "hybrid(<string>,<numeric>)". Returns nullptr for unknown names
/// (Soft TF-IDF needs a corpus model and cannot be built by name).
ValueSimilarityPtr MakeSimilarity(const std::string& name);

/// The gram length MakeSimilarity(name) declares in its Traits(), or 0
/// for an unknown name or a metric outside the q-gram set family.
/// Remains only for perfbench's traced run, which still calls it, until
/// a benchmark change drops the call.
int GramMetricSize(const std::string& name);

}  // namespace hera

#endif  // HERA_SIM_METRICS_H_
