// An ignored stand-in for the removed verified-pair similarity cache.
//
// The prefix-filter join verifies each ordered pair of distinct value
// texts once per join, so a cache of pair scores has nothing left to
// serve. This type, SimilarityJoin::SetPairSimCache and the
// HeraOptions::enable_pair_sim_cache / pair_sim_cache_capacity fields
// remain only for perfbench's traced run, which still names them, until
// a benchmark change drops those calls. The stub stores nothing and its
// counters stay zero.

#ifndef HERA_SIM_PAIR_CACHE_H_
#define HERA_SIM_PAIR_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace hera {

class PairSimCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  explicit PairSimCache(const std::string& /*metric_name*/,
                        size_t /*max_entries*/ = 0) {}

  Stats stats() const { return {}; }
};

}  // namespace hera

#endif  // HERA_SIM_PAIR_CACHE_H_
