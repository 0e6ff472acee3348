#include "sim/kernel.h"

#include <algorithm>
#include <cmath>

namespace hera {

namespace {

/// Sentinel for IntersectBoundedMerge: the intersection provably
/// cannot reach min_req. Distinct from any real count (counts are <=
/// set sizes, far below SIZE_MAX).
constexpr size_t kAbandonedIntersect = ~size_t{0};

/// Bounded two-pointer merge: the exact count when it is >= min_req,
/// else kAbandonedIntersect. The abandon test is integer — even if
/// every remaining element matched, min_req is out of reach — so it
/// decides exactly what the full count would, only sooner.
inline size_t IntersectBoundedMerge(const uint32_t* a, size_t na,
                                    const uint32_t* b, size_t nb,
                                    size_t min_req) {
  size_t i = 0, j = 0, inter = 0;
  while (i < na && j < nb) {
    if (inter + std::min(na - i, nb - j) < min_req) {
      return kAbandonedIntersect;
    }
    uint32_t x = a[i], y = b[j];
    inter += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return inter < min_req ? kAbandonedIntersect : inter;
}

}  // namespace

double FormulaOf(SetSimKind kind, size_t inter, size_t na, size_t nb) {
  switch (kind) {
    case SetSimKind::kJaccard: {
      size_t uni = na + nb - inter;
      return static_cast<double>(inter) / static_cast<double>(uni);
    }
    case SetSimKind::kDice:
      return 2.0 * static_cast<double>(inter) / static_cast<double>(na + nb);
    case SetSimKind::kOverlap:
      return static_cast<double>(inter) /
             static_cast<double>(std::min(na, nb));
    case SetSimKind::kCosine:
      return static_cast<double>(inter) /
             std::sqrt(static_cast<double>(na) * static_cast<double>(nb));
  }
  return 0.0;  // Unreachable.
}

size_t IntersectSizeMerge(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb) {
  size_t i = 0, j = 0, inter = 0;
  while (i < na && j < nb) {
    uint32_t x = a[i], y = b[j];
    // Deduplicated inputs: at least one pointer advances per step, and
    // both advance on a hit, so the increments can be branch-light.
    inter += (x == y);
    i += (x <= y);
    j += (y <= x);
  }
  return inter;
}

size_t IntersectSizeGallop(const uint32_t* small, size_t ns,
                           const uint32_t* large, size_t nl) {
  size_t pos = 0, inter = 0;
  for (size_t i = 0; i < ns && pos < nl; ++i) {
    uint32_t v = small[i];
    if (large[pos] < v) {
      // Exponential expansion, then binary search the bracketed range
      // for the first element >= v.
      size_t step = 1, prev = pos;
      while (pos + step < nl && large[pos + step] < v) {
        prev = pos + step;
        step <<= 1;
      }
      size_t hi = std::min(pos + step, nl);
      pos = static_cast<size_t>(
          std::lower_bound(large + prev + 1, large + hi, v) - large);
    }
    if (pos < nl && large[pos] == v) {
      ++inter;
      ++pos;
    }
  }
  return inter;
}

bool BitmapEligible(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return false;
  uint32_t lo = std::min(a.front(), b.front());
  uint32_t hi = std::max(a.back(), b.back());
  return hi - lo < kBitmapBits;
}

size_t IntersectSizeBitmap(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  const uint32_t base = std::min(a.front(), b.front());
  uint64_t words[kBitmapBits / 64] = {};
  for (uint32_t id : a) {
    uint32_t d = id - base;
    words[d >> 6] |= uint64_t{1} << (d & 63);
  }
  size_t inter = 0;
  for (uint32_t id : b) {
    uint32_t d = id - base;
    inter += (words[d >> 6] >> (d & 63)) & 1;
  }
  return inter;
}

size_t IntersectSize(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return 0;
  if (BitmapEligible(a, b)) return IntersectSizeBitmap(a, b);
  const std::vector<uint32_t>& s = a.size() <= b.size() ? a : b;
  const std::vector<uint32_t>& l = a.size() <= b.size() ? b : a;
  if (s.size() * kGallopSkew < l.size()) {
    return IntersectSizeGallop(s.data(), s.size(), l.data(), l.size());
  }
  return IntersectSizeMerge(s.data(), s.size(), l.data(), l.size());
}

double SetSimilarity(SetSimKind kind, const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  // Empty gram sets carry no information (JaccardOfSets convention).
  if (a.empty() || b.empty()) return 0.0;
  return FormulaOf(kind, IntersectSize(a, b), a.size(), b.size());
}

size_t MinOverlapForThreshold(SetSimKind kind, size_t na, size_t nb,
                              double xi) {
  size_t cap = std::min(na, nb);
  if (na == 0 || nb == 0) return cap + 1;  // Score is pinned to 0.0...
  if (xi <= 0.0) return 0;                 // ...but 0.0 >= xi <= 0 holds.
  if (FormulaOf(kind, cap, na, nb) < xi) return cap + 1;  // Unreachable xi.
  // Smallest o with formula(o) >= xi; the formula is nondecreasing in
  // o for every kind, so binary search is exact.
  size_t lo = 0, hi = cap;  // Invariant: formula(hi) >= xi.
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (FormulaOf(kind, mid, na, nb) >= xi) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

double SetSimilarityBounded(SetSimKind kind, const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b, double xi) {
  if (a.empty() || b.empty()) return 0.0 >= xi ? 0.0 : kBelowThreshold;
  const size_t na = a.size(), nb = b.size();
  const size_t min_req = MinOverlapForThreshold(kind, na, nb, xi);
  if (min_req > std::min(na, nb)) return kBelowThreshold;  // Size bound.

  size_t inter;
  if (BitmapEligible(a, b)) {
    // Already cheaper than any early exit could make it.
    inter = IntersectSizeBitmap(a, b);
  } else if (std::min(na, nb) * kGallopSkew < std::max(na, nb)) {
    const std::vector<uint32_t>& s = na <= nb ? a : b;
    const std::vector<uint32_t>& l = na <= nb ? b : a;
    const size_t ns = s.size(), nl = l.size();
    size_t pos = 0;
    inter = 0;
    for (size_t i = 0; i < ns && pos < nl; ++i) {
      // Even if every remaining small element matched, min_req is out
      // of reach: abandon. (Integer test; exactness preserved.)
      if (inter + (ns - i) < min_req) return kBelowThreshold;
      uint32_t v = s[i];
      if (l[pos] < v) {
        size_t step = 1, prev = pos;
        while (pos + step < nl && l[pos + step] < v) {
          prev = pos + step;
          step <<= 1;
        }
        size_t hi = std::min(pos + step, nl);
        pos = static_cast<size_t>(
            std::lower_bound(l.data() + prev + 1, l.data() + hi, v) - l.data());
      }
      if (pos < nl && l[pos] == v) {
        ++inter;
        ++pos;
      }
    }
  } else {
    inter = IntersectBoundedMerge(a.data(), na, b.data(), nb, min_req);
    if (inter == kAbandonedIntersect) return kBelowThreshold;
  }
  if (inter < min_req) return kBelowThreshold;
  // Monotonicity: formula(inter) >= formula(min_req) >= xi.
  return FormulaOf(kind, inter, na, nb);
}

double BestSetSimilarityBounded(
    SetSimKind kind, const std::vector<uint32_t>& a,
    const std::vector<const std::vector<uint32_t>*>& bs, double floor) {
  double best = 0.0;
  for (const std::vector<uint32_t>* b : bs) {
    if (b == nullptr) continue;
    double s = SetSimilarityBounded(kind, a, *b, std::max(floor, best));
    if (s != kBelowThreshold && s > best) best = s;
  }
  return best;
}

bool GramMetricKind(const std::string& metric_name, int q, SetSimKind* kind) {
  static constexpr struct {
    const char* base;
    SetSimKind kind;
  } kKinds[] = {
      {"jaccard", SetSimKind::kJaccard},
      {"dice", SetSimKind::kDice},
      {"overlap", SetSimKind::kOverlap},
      {"cosine", SetSimKind::kCosine},
  };
  const std::string suffix = "_q" + std::to_string(q);
  for (const auto& k : kKinds) {
    std::string plain = k.base + suffix;
    if (metric_name == plain || metric_name == "hybrid(" + plain + ")") {
      *kind = k.kind;
      return true;
    }
  }
  return false;
}

bool IsEditMetric(const std::string& metric_name) {
  return metric_name == "edit" || metric_name == "hybrid(edit)" ||
         (metric_name.rfind("hybrid(edit,", 0) == 0 &&
          metric_name.back() == ')');
}

int GramMetricSize(const std::string& metric_name) {
  // Parse the "_q<k>" suffix (possibly inside a one-argument hybrid
  // wrapper) and confirm through GramMetricKind so the two can never
  // disagree about what counts as gram-family.
  size_t pos = metric_name.rfind("_q");
  if (pos == std::string::npos) return 0;
  int q = 0;
  for (size_t i = pos + 2;
       i < metric_name.size() && metric_name[i] >= '0' && metric_name[i] <= '9';
       ++i) {
    q = q * 10 + (metric_name[i] - '0');
    if (q > 64) return 0;
  }
  SetSimKind kind;
  return q > 0 && GramMetricKind(metric_name, q, &kind) ? q : 0;
}

}  // namespace hera
