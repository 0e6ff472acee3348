#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/string_metrics.h"
#include "text/normalize.h"
#include "text/qgram.h"
#include "text/tfidf.h"

namespace hera {

namespace {

/// Null never matches anything (including null): shared absence of a
/// value is not evidence that two records agree.
bool EitherNull(const Value& a, const Value& b) {
  return a.is_null() || b.is_null();
}

/// Per-metric tokenization cache ceiling: gram-set metrics intern the
/// q-gram sets of the texts they score (bounded so a pathological
/// value universe degrades to pass-through, not unbounded growth).
constexpr size_t kMetricTokenCacheEntries = 1u << 18;

std::shared_ptr<TokenCache> MakeMetricTokenCache(int q) {
  return std::make_shared<TokenCache>(q, kMetricTokenCacheEntries);
}

}  // namespace

JaccardSimilarity::JaccardSimilarity(int q)
    : q_(q), cache_(MakeMetricTokenCache(q)) {}

double JaccardSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  TokenCache::GramsPtr ga = cache_->Grams(Normalize(a.ToString()));
  TokenCache::GramsPtr gb = cache_->Grams(Normalize(b.ToString()));
  return JaccardOfSets(*ga, *gb);
}

std::string JaccardSimilarity::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "jaccard_q%d", q_);
  return buf;
}

double EditSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  return NormalizedLevenshtein(a.ToString(), b.ToString());
}

double JaroWinklerSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  return JaroWinkler(a.ToString(), b.ToString());
}

CosineSimilarity::CosineSimilarity(int q)
    : q_(q), cache_(MakeMetricTokenCache(q)) {}

double CosineSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  TokenCache::GramsPtr ga = cache_->Grams(Normalize(a.ToString()));
  TokenCache::GramsPtr gb = cache_->Grams(Normalize(b.ToString()));
  // Same expression as QgramCosine (bit-equal scores).
  if (ga->empty() || gb->empty()) return 0.0;
  size_t inter = OverlapOfSets(*ga, *gb);
  return static_cast<double>(inter) /
         std::sqrt(static_cast<double>(ga->size()) *
                   static_cast<double>(gb->size()));
}

std::string CosineSimilarity::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cosine_q%d", q_);
  return buf;
}

DiceSimilarity::DiceSimilarity(int q)
    : q_(q), cache_(MakeMetricTokenCache(q)) {}

double DiceSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  TokenCache::GramsPtr ga = cache_->Grams(Normalize(a.ToString()));
  TokenCache::GramsPtr gb = cache_->Grams(Normalize(b.ToString()));
  // Same expression as QgramDice (bit-equal scores).
  if (ga->empty() || gb->empty()) return 0.0;
  size_t inter = OverlapOfSets(*ga, *gb);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(ga->size() + gb->size());
}

std::string DiceSimilarity::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dice_q%d", q_);
  return buf;
}

OverlapSimilarity::OverlapSimilarity(int q)
    : q_(q), cache_(MakeMetricTokenCache(q)) {}

double OverlapSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  TokenCache::GramsPtr ga = cache_->Grams(Normalize(a.ToString()));
  TokenCache::GramsPtr gb = cache_->Grams(Normalize(b.ToString()));
  // Same expression as QgramOverlap (bit-equal scores).
  if (ga->empty() || gb->empty()) return 0.0;
  size_t inter = OverlapOfSets(*ga, *gb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(ga->size(), gb->size()));
}

std::string OverlapSimilarity::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "overlap_q%d", q_);
  return buf;
}

double MongeElkanSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  return MongeElkan(a.ToString(), b.ToString());
}

double SoftTfIdfSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  return SoftTfIdf(a.ToString(), b.ToString(), *model_, theta_);
}

double NumericSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  if (!a.is_number() || !b.is_number()) return 0.0;
  double x = a.AsNumber(), y = b.AsNumber();
  if (x == y) return 1.0;
  double denom = std::max(std::fabs(x), std::fabs(y));
  if (denom == 0.0) return 1.0;
  return std::clamp(1.0 - std::fabs(x - y) / denom, 0.0, 1.0);
}

double ScaledNumericSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  if (!a.is_number() || !b.is_number()) return 0.0;
  if (tolerance_ <= 0.0) return a.AsNumber() == b.AsNumber() ? 1.0 : 0.0;
  double gap = std::fabs(a.AsNumber() - b.AsNumber());
  return std::clamp(1.0 - gap / tolerance_, 0.0, 1.0);
}

std::string ScaledNumericSimilarity::Name() const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "numeric_tol%g", tolerance_);
  return buf;
}

double HybridSimilarity::Compute(const Value& a, const Value& b) const {
  if (EitherNull(a, b)) return 0.0;
  if (a.is_number() && b.is_number()) {
    return numeric_metric_ ? numeric_metric_->Compute(a, b)
                           : default_numeric_.Compute(a, b);
  }
  return string_metric_->Compute(a, b);
}

std::string HybridSimilarity::Name() const {
  if (numeric_metric_) {
    return "hybrid(" + string_metric_->Name() + "," + numeric_metric_->Name() +
           ")";
  }
  return "hybrid(" + string_metric_->Name() + ")";
}

SimilarityTraits HybridSimilarity::Traits() const {
  const SimilarityTraits numeric =
      numeric_metric_ ? numeric_metric_->Traits() : default_numeric_.Traits();
  // A numeric metric that declares no number rule scores number pairs
  // some other way than the string metric: assume nothing.
  if (numeric.numbers == SimilarityTraits::Numbers::kAsText) return {};
  SimilarityTraits traits = string_metric_->Traits();
  traits.numbers = numeric.numbers;
  traits.tolerance = numeric.tolerance;
  return traits;
}

ValueSimilarityPtr MakeSimilarity(const std::string& name) {
  auto parse_q = [](const std::string& s, const char* prefix) -> int {
    int q = 0;
    if (std::sscanf(s.c_str(), (std::string(prefix) + "%d").c_str(), &q) == 1 &&
        q >= 1) {
      return q;
    }
    return 0;
  };
  if (name.rfind("jaccard_q", 0) == 0) {
    if (int q = parse_q(name, "jaccard_q")) {
      return std::make_shared<JaccardSimilarity>(q);
    }
    return nullptr;
  }
  if (name == "jaccard") return std::make_shared<JaccardSimilarity>(2);
  if (name == "edit") return std::make_shared<EditSimilarity>();
  if (name == "jaro_winkler") return std::make_shared<JaroWinklerSimilarity>();
  if (name.rfind("cosine_q", 0) == 0) {
    if (int q = parse_q(name, "cosine_q")) {
      return std::make_shared<CosineSimilarity>(q);
    }
    return nullptr;
  }
  if (name == "cosine") return std::make_shared<CosineSimilarity>(2);
  if (name.rfind("dice_q", 0) == 0) {
    if (int q = parse_q(name, "dice_q")) {
      return std::make_shared<DiceSimilarity>(q);
    }
    return nullptr;
  }
  if (name == "dice") return std::make_shared<DiceSimilarity>(2);
  if (name.rfind("overlap_q", 0) == 0) {
    if (int q = parse_q(name, "overlap_q")) {
      return std::make_shared<OverlapSimilarity>(q);
    }
    return nullptr;
  }
  if (name == "overlap") return std::make_shared<OverlapSimilarity>(2);
  if (name == "monge_elkan") return std::make_shared<MongeElkanSimilarity>();
  if (name.rfind("numeric_tol", 0) == 0) {
    double tol = 0.0;
    if (std::sscanf(name.c_str(), "numeric_tol%lf", &tol) == 1 && tol > 0.0) {
      return std::make_shared<ScaledNumericSimilarity>(tol);
    }
    return nullptr;
  }
  if (name == "numeric") return std::make_shared<NumericSimilarity>();
  if (name.rfind("hybrid(", 0) == 0 && name.back() == ')') {
    std::string inner_spec = name.substr(7, name.size() - 8);
    size_t comma = inner_spec.find(',');
    if (comma == std::string::npos) {
      auto inner = MakeSimilarity(inner_spec);
      if (!inner) return nullptr;
      return std::make_shared<HybridSimilarity>(std::move(inner));
    }
    auto string_metric = MakeSimilarity(inner_spec.substr(0, comma));
    auto numeric_metric = MakeSimilarity(inner_spec.substr(comma + 1));
    if (!string_metric || !numeric_metric) return nullptr;
    return std::make_shared<HybridSimilarity>(std::move(string_metric),
                                              std::move(numeric_metric));
  }
  return nullptr;
}

int GramMetricSize(const std::string& name) {
  ValueSimilarityPtr metric = MakeSimilarity(name);
  return metric ? metric->Traits().gram_q : 0;
}

}  // namespace hera
