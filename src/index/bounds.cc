#include "index/bounds.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace hera {

namespace {

bool Marked(const std::vector<uint32_t>& marks, size_t fid, uint32_t stamp) {
  return fid < marks.size() && marks[fid] == stamp;
}

/// Marks `fid` with `stamp` and returns true, or returns false when the
/// current call already marked it. Grows `marks` to cover `fid`.
bool FirstMark(std::vector<uint32_t>& marks, size_t fid, uint32_t stamp) {
  if (fid >= marks.size()) marks.resize(std::max(fid + 1, 2 * marks.size()), 0);
  if (marks[fid] == stamp) return false;
  marks[fid] = stamp;
  return true;
}

double Denominator(size_t num_fields_i, size_t num_fields_j) {
  const double denom =
      static_cast<double>(std::min(num_fields_i, num_fields_j));
  assert(denom > 0.0);
  return denom;
}

}  // namespace

uint32_t GroupBounds::NextStamp() {
  if (stamp_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(left_.begin(), left_.end(), 0);
    std::fill(right_.begin(), right_.end(), 0);
    std::fill(cell_.begin(), cell_.end(), 0);
    stamp_ = 0;
  }
  return ++stamp_;
}

double GroupBounds::Upper(std::span<const IndexedPair> pairs,
                          size_t num_fields_i, size_t num_fields_j,
                          bool tight) {
  if (pairs.empty()) return 0.0;
  // Algorithm 1 keeps, for each field of the left record, the covering
  // pair of maximum similarity; the matching assigns each left field at
  // most one pair of at most that similarity, so the sum bounds the
  // optimum. The first pair per fid is the max (descending sort). In
  // tight mode the same sum over the right side also bounds the optimum
  // and the smaller of the two is used.
  const uint32_t stamp = NextStamp();
  double up_left = 0.0, up_right = 0.0;
  for (const IndexedPair& p : pairs) {
    if (FirstMark(left_, p.a.fid, stamp)) up_left += p.sim;
    if (tight && FirstMark(right_, p.b.fid, stamp)) up_right += p.sim;
  }
  return (tight ? std::min(up_left, up_right) : up_left) /
         Denominator(num_fields_i, num_fields_j);
}

double GroupBounds::Lower(std::span<const IndexedPair> pairs,
                          size_t num_fields_i, size_t num_fields_j) {
  if (pairs.empty()) return 0.0;
  // Greedy one-to-one matching in descending similarity (always an
  // achievable matching).
  const uint32_t stamp = NextStamp();
  double greedy = 0.0;
  for (const IndexedPair& p : pairs) {
    if (Marked(left_, p.a.fid, stamp) || Marked(right_, p.b.fid, stamp)) {
      continue;
    }
    FirstMark(left_, p.a.fid, stamp);
    FirstMark(right_, p.b.fid, stamp);
    greedy += p.sim;
  }
  return greedy / Denominator(num_fields_i, num_fields_j);
}

void GroupBounds::Refine(std::span<const IndexedPair> pairs,
                         std::vector<IndexedPair>* refined) {
  refined->clear();
  if (pairs.empty()) return;
  // The first pair seen for a (fid_a, fid_b) combination is its
  // maximum (descending sort).
  uint32_t max_b = 0;
  for (const IndexedPair& p : pairs) max_b = std::max(max_b, p.b.fid);
  const size_t width = static_cast<size_t>(max_b) + 1;
  const uint32_t stamp = NextStamp();
  for (const IndexedPair& p : pairs) {
    if (FirstMark(cell_, p.a.fid * width + p.b.fid, stamp)) {
      refined->push_back(p);
    }
  }
}

BoundResult ComputeBounds(std::span<const IndexedPair> pairs,
                          size_t num_fields_i, size_t num_fields_j,
                          bool tight) {
  GroupBounds bounds;
  BoundResult result;
  result.upper = bounds.Upper(pairs, num_fields_i, num_fields_j, tight);
  result.lower = bounds.Lower(pairs, num_fields_i, num_fields_j);
  bounds.Refine(pairs, &result.refined);
  return result;
}

}  // namespace hera
