#include "index/bounds.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace hera {

BoundResult ComputeBounds(const std::vector<IndexedPair>& pairs,
                          size_t num_fields_i, size_t num_fields_j,
                          bool tight) {
  BoundResult result;
  if (pairs.empty()) return result;
  const double denom =
      static_cast<double>(std::min(num_fields_i, num_fields_j));
  assert(denom > 0.0);

  // ---- Step 1: refined field set V' — max-sim value pair per field
  // pair. Input is sorted by descending sim, so the first pair seen for
  // a (fid_a, fid_b) combination is the maximum.
  std::unordered_set<uint64_t> seen_field_pair;
  seen_field_pair.reserve(pairs.size());
  for (const IndexedPair& p : pairs) {
    uint64_t fkey = (static_cast<uint64_t>(p.a.fid) << 32) | p.b.fid;
    if (seen_field_pair.insert(fkey).second) result.refined.push_back(p);
  }

  // ---- Step 2: upper bound — Algorithm 1 keeps, for each field of
  // the left record, the covering pair of maximum similarity (flagU is
  // keyed on (rid1, fid1)); the matching assigns each left field at
  // most one pair of at most that similarity, so the sum bounds the
  // optimum. First occurrence per fid is the max (descending sort).
  // In tight mode the same sum over the right side also bounds the
  // optimum and the smaller of the two is used.
  double up_left = 0.0, up_right = 0.0;
  std::unordered_set<uint32_t> seen_left, seen_right;
  for (const IndexedPair& p : result.refined) {
    if (seen_left.insert(p.a.fid).second) up_left += p.sim;
    if (seen_right.insert(p.b.fid).second) up_right += p.sim;
  }
  result.upper = (tight ? std::min(up_left, up_right) : up_left) / denom;

  // ---- Step 3: lower bound — greedy one-to-one matching in
  // descending similarity (always an achievable matching).
  double greedy = 0.0;
  std::unordered_set<uint32_t> used_left, used_right;
  for (const IndexedPair& p : result.refined) {
    if (used_left.count(p.a.fid) || used_right.count(p.b.fid)) continue;
    used_left.insert(p.a.fid);
    used_right.insert(p.b.fid);
    greedy += p.sim;
  }
  result.lower = greedy / denom;
  return result;
}

}  // namespace hera
