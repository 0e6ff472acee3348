#include "matching/weight_kernel.h"

#include <algorithm>
#include <cstdlib>

#include "sim/string_metrics.h"
#include "text/normalize.h"

namespace hera {

namespace {

/// Memo ceiling, matching the per-metric token caches: a pathological
/// value universe degrades to pass-through, never unbounded growth.
constexpr size_t kMaxMemoEntries = 1u << 18;

/// Gram length parsed from a "<kind>_q<N>" (or hybrid-wrapped) metric
/// name; 0 when the name carries no _q suffix.
int ParseQ(const std::string& name) {
  size_t pos = name.rfind("_q");
  if (pos == std::string::npos) return 0;
  return std::atoi(name.c_str() + pos + 2);
}

}  // namespace

BestPairScorer::BestPairScorer(const ValueSimilarity& simv)
    : simv_(simv), dict_(std::max(1, ParseQ(simv.Name()))) {
  const std::string name = simv.Name();
  if (GramMetricKind(name, ParseQ(name), &kind_)) {
    kernel_ = true;
    hybrid_ = name.rfind("hybrid(", 0) == 0;
    // Empty dictionary: every gram is "unknown" and gets a fresh id on
    // the fly. Ids are insertion-ordered instead of frequency-ordered —
    // irrelevant here, the kernels only need the encoding injective.
    dict_.Freeze();
  } else if (IsEditMetric(name)) {
    // The bounded edit path is exact the same way the set kernels are:
    // NormalizedLevenshteinAtLeast returns the bit-equal score whenever
    // it reaches the floor (sim/string_metrics.h).
    edit_ = true;
    hybrid_ = name != "edit";
  }
}

const std::vector<uint32_t>& BestPairScorer::Encoded(
    const Value& v, std::vector<std::vector<uint32_t>>* overflow) {
  std::string text = Normalize(v.ToString());
  auto it = encoded_.find(text);
  if (it != encoded_.end()) return it->second;
  if (encoded_.size() >= kMaxMemoEntries) {
    // The caller reserved one slot per value, so this push never
    // reallocates out from under an earlier reference.
    overflow->push_back(dict_.Encode(text));
    return overflow->back();
  }
  // Memoized entries have stable addresses (node-based map): the
  // reference survives rehashes triggered by later insertions.
  return encoded_.emplace(std::move(text), dict_.Encode(text)).first->second;
}

void BestPairScorer::EncodeSide(const std::vector<Value>& b) {
  eb_.clear();
  eb_overflow_.clear();
  eb_.reserve(b.size());
  eb_overflow_.reserve(b.size());
  for (const Value& vb : b) {
    eb_.push_back(vb.is_null() ? nullptr : &Encoded(vb, &eb_overflow_));
  }
}

double BestPairScorer::KernelRow(const Value& va, const std::vector<Value>& b,
                                 double floor) {
  if (va.is_null()) return 0.0;
  if (hybrid_ && va.is_number()) {
    // Mixed row: number/number cells belong to the numeric metric,
    // everything else to the kernel, one cell at a time.
    double best = 0.0;
    for (size_t j = 0; j < b.size(); ++j) {
      const Value& vb = b[j];
      if (vb.is_null()) continue;
      if (vb.is_number()) {
        best = std::max(best, simv_.Compute(va, vb));
      } else {
        row_overflow_.clear();
        row_overflow_.reserve(1);
        double s = SetSimilarityBounded(kind_, Encoded(va, &row_overflow_),
                                        *eb_[j], std::max(floor, best));
        if (s != kBelowThreshold && s > best) best = s;
      }
    }
    return best;
  }
  row_overflow_.clear();
  row_overflow_.reserve(1);
  const std::vector<uint32_t>& ia = Encoded(va, &row_overflow_);
  return BestSetSimilarityBounded(kind_, ia, eb_, floor);
}

void BestPairScorer::NormalizeSide(const std::vector<Value>& b) {
  btext_.resize(b.size());
  btext_null_.resize(b.size());
  for (size_t j = 0; j < b.size(); ++j) {
    btext_null_[j] = b[j].is_null() ? 1 : 0;
    btext_[j] = btext_null_[j] ? std::string() : Normalize(b[j].ToString());
  }
}

double BestPairScorer::EditRow(const Value& va, const std::vector<Value>& b,
                               double floor) {
  if (va.is_null()) return 0.0;
  const std::string na = Normalize(va.ToString());
  double best = 0.0;
  for (size_t j = 0; j < b.size(); ++j) {
    if (btext_null_[j]) continue;
    const Value& vb = b[j];
    if (hybrid_ && va.is_number() && vb.is_number()) {
      best = std::max(best, simv_.Compute(va, vb));
      continue;
    }
    // Exact when >= the ratcheted floor, else 0.0 — either way the max
    // over the row is preserved through the caller's floor gate.
    best = std::max(best, NormalizedLevenshteinAtLeastNormalized(
                              na, btext_[j], std::max(floor, best)));
  }
  return best;
}

double BestPairScorer::BestAtLeast(const Value& a, const std::vector<Value>& b,
                                   double floor) {
  if (a.is_null()) return 0.0;
  if (kernel_) {
    EncodeSide(b);
    return KernelRow(a, b, floor);
  }
  if (edit_) {
    NormalizeSide(b);
    return EditRow(a, b, floor);
  }
  double best = 0.0;
  for (const Value& vb : b) {
    if (vb.is_null()) continue;
    best = std::max(best, simv_.Compute(a, vb));
  }
  return best;
}

double BestPairScorer::BestAtLeast(const std::vector<Value>& a,
                                   const std::vector<Value>& b, double floor) {
  double best = 0.0;
  if (kernel_) {
    // Batched: encode the b side once for the whole matrix, then score
    // row by row with the floor ratcheting upward.
    EncodeSide(b);
    for (const Value& va : a) {
      best = std::max(best, KernelRow(va, b, std::max(floor, best)));
    }
    return best;
  }
  if (edit_) {
    NormalizeSide(b);
    for (const Value& va : a) {
      best = std::max(best, EditRow(va, b, std::max(floor, best)));
    }
    return best;
  }
  for (const Value& va : a) {
    if (va.is_null()) continue;
    for (const Value& vb : b) {
      if (vb.is_null()) continue;
      best = std::max(best, simv_.Compute(va, vb));
    }
  }
  return best;
}

}  // namespace hera
