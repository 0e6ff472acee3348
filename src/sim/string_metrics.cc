#include "sim/string_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "sim/kernel_dispatch.h"
#include "text/normalize.h"
#include "text/qgram.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace hera {

namespace {

struct GramPair {
  std::vector<std::string> a;
  std::vector<std::string> b;
};

GramPair Grams(std::string_view a, std::string_view b, int q) {
  return {QgramSet(Normalize(a), q), QgramSet(Normalize(b), q)};
}

}  // namespace

double QgramJaccard(std::string_view a, std::string_view b, int q) {
  auto [ga, gb] = Grams(a, b, q);
  return JaccardOfSets(ga, gb);
}

double QgramDice(std::string_view a, std::string_view b, int q) {
  auto [ga, gb] = Grams(a, b, q);
  if (ga.empty() || gb.empty()) return 0.0;
  size_t inter = OverlapOfSets(ga, gb);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(ga.size() + gb.size());
}

double QgramOverlap(std::string_view a, std::string_view b, int q) {
  auto [ga, gb] = Grams(a, b, q);
  if (ga.empty() || gb.empty()) return 0.0;
  size_t inter = OverlapOfSets(ga, gb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(ga.size(), gb.size()));
}

double QgramCosine(std::string_view a, std::string_view b, int q) {
  auto [ga, gb] = Grams(a, b, q);
  if (ga.empty() || gb.empty()) return 0.0;
  size_t inter = OverlapOfSets(ga, gb);
  return static_cast<double>(inter) /
         std::sqrt(static_cast<double>(ga.size()) * static_cast<double>(gb.size()));
}

namespace {

/// "No limit" sentinel for the bounded edit-distance kernels.
constexpr size_t kNoLimit = std::numeric_limits<size_t>::max();

constexpr uint64_t kHighBit = uint64_t{1} << 63;

/// One column step of one 64-row block of the Myers bit-parallel
/// recurrence (Hyyrö/edlib formulation). pv/mv are the vertical +1/-1
/// delta vectors for this block, eq the pattern-match bits for the
/// current text byte, hin the horizontal delta entering from the block
/// below (-1, 0, +1). Returns the horizontal delta leaving the top of
/// the block, and writes the pre-shift horizontal vectors so the
/// caller can read the score delta at the pattern's last row.
struct BlockStep {
  int hout;
  uint64_t ph;  // pre-shift horizontal +1 bits; bit i = row i+1 of block
  uint64_t mh;  // pre-shift horizontal -1 bits
};

inline BlockStep AdvanceMyersBlock(uint64_t& pv, uint64_t& mv, uint64_t eq,
                                   int hin) {
  const uint64_t xv = eq | mv;
  if (hin < 0) eq |= 1;
  const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
  const uint64_t ph = mv | ~(xh | pv);
  const uint64_t mh = pv & xh;
  int hout = 0;
  if (ph & kHighBit) {
    hout = 1;
  } else if (mh & kHighBit) {
    hout = -1;
  }
  uint64_t ph_shift = ph << 1;
  uint64_t mh_shift = mh << 1;
  if (hin < 0) {
    mh_shift |= 1;
  } else if (hin > 0) {
    ph_shift |= 1;
  }
  pv = mh_shift | ~(xv | ph_shift);
  mv = ph_shift & xv;
  return {hout, ph, mh};
}

/// Myers for patterns of <= 64 bytes: the whole pattern in one word.
/// With `limit`, returns limit + 1 as soon as the score minus the
/// remaining columns exceeds it (the score changes by at most one per
/// column, so the final distance provably exceeds the limit too).
size_t Myers64(std::string_view pat, std::string_view txt, size_t limit) {
  const size_t m = pat.size(), n = txt.size();
  uint64_t peq[256] = {};
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pat[i])] |= uint64_t{1} << i;
  }
  uint64_t pv = ~uint64_t{0}, mv = 0;
  size_t score = m;
  const uint64_t last_row = uint64_t{1} << (m - 1);
  for (size_t j = 0; j < n; ++j) {
    BlockStep step =
        AdvanceMyersBlock(pv, mv, peq[static_cast<unsigned char>(txt[j])], 1);
    if (step.ph & last_row) {
      ++score;
    } else if (step.mh & last_row) {
      --score;
    }
    if (limit != kNoLimit && score > limit + (n - 1 - j)) return limit + 1;
  }
  return score;
}

/// Blocked Myers for patterns longer than one word: ceil(m/64) blocks
/// per column with horizontal carries between them. Rows above m in
/// the top block are padding (eq bits 0); carries propagate upward
/// only, so they never affect the tracked row m.
size_t MyersBlocked(std::string_view pat, std::string_view txt, size_t limit) {
  const size_t m = pat.size(), n = txt.size();
  const size_t w = (m + 63) / 64;
  std::vector<uint64_t> peq(256 * w, 0);
  for (size_t i = 0; i < m; ++i) {
    peq[static_cast<size_t>(static_cast<unsigned char>(pat[i])) * w +
        (i >> 6)] |= uint64_t{1} << (i & 63);
  }
  std::vector<uint64_t> pv(w, ~uint64_t{0});
  std::vector<uint64_t> mv(w, 0);
  size_t score = m;
  const size_t top = w - 1;
  const uint64_t last_row = uint64_t{1} << ((m - 1) & 63);
  for (size_t j = 0; j < n; ++j) {
    const uint64_t* eq_row =
        &peq[static_cast<size_t>(static_cast<unsigned char>(txt[j])) * w];
    int hin = 1;
    for (size_t v = 0; v <= top; ++v) {
      BlockStep step = AdvanceMyersBlock(pv[v], mv[v], eq_row[v], hin);
      if (v == top) {
        if (step.ph & last_row) {
          ++score;
        } else if (step.mh & last_row) {
          --score;
        }
      }
      hin = step.hout;
    }
    if (limit != kNoLimit && score > limit + (n - 1 - j)) return limit + 1;
  }
  return score;
}

size_t MyersDistance(std::string_view a, std::string_view b, size_t limit) {
  if (a.size() > b.size()) std::swap(a, b);  // Pattern = shorter side.
  if (a.empty()) return b.size();
  CountMyersCall();
  return a.size() <= 64 ? Myers64(a, b, limit) : MyersBlocked(a, b, limit);
}

}  // namespace

size_t LevenshteinDistanceDp(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> row(a.size() + 1);
  std::iota(row.begin(), row.end(), size_t{0});
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t cur = row[i];
      size_t sub_cost = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, sub_cost});
      prev_diag = cur;
    }
  }
  return row[a.size()];
}

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  return MyersDistance(a, b, kNoLimit);
}

size_t LevenshteinDistanceBounded(std::string_view a, std::string_view b,
                                  size_t limit) {
  const size_t gap =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  if (gap > limit) return limit + 1;  // lev >= length gap.
  return MyersDistance(a, b, limit);
}

double NormalizedLevenshtein(std::string_view a, std::string_view b) {
  std::string na = Normalize(a), nb = Normalize(b);
  if (na.empty() && nb.empty()) return 1.0;
  size_t dist = LevenshteinDistance(na, nb);
  size_t denom = std::max(na.size(), nb.size());
  return 1.0 - static_cast<double>(dist) / static_cast<double>(denom);
}

double NormalizedLevenshteinAtLeast(std::string_view a, std::string_view b,
                                    double floor) {
  std::string na = Normalize(a), nb = Normalize(b);
  return NormalizedLevenshteinAtLeastNormalized(na, nb, floor);
}

double NormalizedLevenshteinAtLeastNormalized(std::string_view na,
                                              std::string_view nb,
                                              double floor) {
  if (na.empty() && nb.empty()) return 1.0 >= floor ? 1.0 : 0.0;
  const size_t denom = std::max(na.size(), nb.size());
  // The exact score expression NormalizedLevenshtein evaluates; using
  // the same doubles here makes the distance budget exact rather than
  // epsilon-fudged (same technique as MinOverlapForThreshold).
  auto score_of = [denom](size_t d) {
    return 1.0 - static_cast<double>(d) / static_cast<double>(denom);
  };
  if (score_of(0) < floor) return 0.0;  // floor > 1.0: nothing reaches it.
  // Largest distance whose score still reaches the floor: the closed
  // form (1 - floor) * denom lands within one step of it, and score_of
  // (nonincreasing in d, IEEE division being monotone) settles the
  // rounding. The comparison sends a NaN floor to the whole range
  // rather than into an undefined cast.
  const double budget = (1.0 - floor) * static_cast<double>(denom);
  size_t max_dist =
      budget < static_cast<double>(denom) ? static_cast<size_t>(budget) : denom;
  while (max_dist > 0 && score_of(max_dist) < floor) --max_dist;
  while (max_dist < denom && score_of(max_dist + 1) >= floor) ++max_dist;
  size_t dist = LevenshteinDistanceBounded(na, nb, max_dist);
  if (dist > max_dist) return 0.0;
  return score_of(dist);
}

double Jaro(std::string_view a, std::string_view b) {
  std::string sa = Normalize(a), sb = Normalize(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  size_t match_window =
      std::max<size_t>(1, std::max(sa.size(), sb.size()) / 2) - 1;
  std::vector<bool> a_matched(sa.size(), false), b_matched(sb.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < sa.size(); ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(sb.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && sa[i] == sb[j]) {
        a_matched[i] = b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t transpositions = 0, j = 0;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (sa[i] != sb[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  return (m / sa.size() + m / sb.size() + (m - transpositions / 2.0) / m) / 3.0;
}

double JaroWinkler(std::string_view a, std::string_view b) {
  double jaro = Jaro(a, b);
  std::string sa = Normalize(a), sb = Normalize(b);
  size_t prefix = 0;
  size_t limit = std::min({sa.size(), sb.size(), size_t{4}});
  while (prefix < limit && sa[prefix] == sb[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

namespace {

/// Upper bound on JaroWinkler(x, y) from token lengths alone (inputs
/// in normal form, as WordTokens emits). Matches <= min(|x|, |y|) caps
/// both m/len terms, the transposition term is <= 1, and the Winkler
/// prefix adds at most 4 * 0.1 of the headroom. Every step uses the
/// same doubles (and the same rounding direction) the real metric
/// does, so bound >= JaroWinkler(x, y) holds exactly, never within an
/// epsilon.
double JaroWinklerUpperBound(size_t la, size_t lb) {
  if (la == 0 && lb == 0) return 1.0;
  if (la == 0 || lb == 0) return 0.0;
  // Max prefix boost expressed as the same product JaroWinkler forms
  // (4 * 0.1 in doubles is slightly above the literal 0.4 — using the
  // literal would under-estimate and break soundness in the last bit).
  constexpr double kMaxPrefixBoost = 4.0 * 0.1;
  const double mn = static_cast<double>(std::min(la, lb));
  const double jaro_ub = (mn / static_cast<double>(la) +
                          mn / static_cast<double>(lb) + 1.0) /
                         3.0;
  return jaro_ub + kMaxPrefixBoost * (1.0 - jaro_ub);
}

double MongeElkanOneWay(const std::vector<std::string>& ta,
                        const std::vector<std::string>& tb) {
  if (ta.empty()) return tb.empty() ? 1.0 : 0.0;
  if (tb.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& x : ta) {
    double best = 0.0;
    for (const auto& y : tb) {
      // A candidate whose length-only upper bound cannot beat the
      // running best cannot change the max: skip the full metric.
      if (JaroWinklerUpperBound(x.size(), y.size()) <= best) continue;
      best = std::max(best, JaroWinkler(x, y));
    }
    sum += best;
  }
  return sum / static_cast<double>(ta.size());
}

}  // namespace

double MongeElkan(std::string_view a, std::string_view b) {
  auto ta = WordTokens(a), tb = WordTokens(b);
  return std::max(MongeElkanOneWay(ta, tb), MongeElkanOneWay(tb, ta));
}

double TfIdfCosine(std::string_view a, std::string_view b, const TfIdfModel& model) {
  auto wa = model.WeightVector(a);
  auto wb = model.WeightVector(b);
  if (wa.empty() && wb.empty()) return 1.0;
  double dot = 0.0;
  for (const auto& [tok, w] : wa) {
    auto it = wb.find(tok);
    if (it != wb.end()) dot += w * it->second;
  }
  return std::clamp(dot, 0.0, 1.0);
}

double SoftTfIdf(std::string_view a, std::string_view b, const TfIdfModel& model,
                 double theta) {
  auto wa = model.WeightVector(a);
  auto wb = model.WeightVector(b);
  if (wa.empty() && wb.empty()) return 1.0;
  double score = 0.0;
  for (const auto& [ta, weight_a] : wa) {
    // CLOSE(theta): best soft match of ta among b's tokens.
    double best_sim = 0.0;
    double best_weight_b = 0.0;
    for (const auto& [tb, weight_b] : wb) {
      double s = JaroWinkler(ta, tb);
      if (s >= theta && s > best_sim) {
        best_sim = s;
        best_weight_b = weight_b;
      }
    }
    if (best_sim > 0.0) score += weight_a * best_weight_b * best_sim;
  }
  return std::clamp(score, 0.0, 1.0);
}

}  // namespace hera
