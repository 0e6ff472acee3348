// The per-metric gram cache: interned q-gram token vectors.
//
// Each q-gram set metric (sim/metrics.h) owns one. Its Compute is called
// once per scored pair by NestedLoopJoin and by the baselines, so the
// same value text is tokenized again and again; TokenCache interns the
// q-gram set of each normalized value string once and hands out
// shared_ptr references. A hit is one hash lookup instead of a gram
// extraction, sort, and dedup. (The prefix-filter join does not use it:
// it tokenizes each distinct text once per call.)
//
// Keys are the normalized value text (content-addressed), so an entry
// never goes stale: a merged super record carries the same value
// strings its sources did. When the capacity ceiling is reached new
// entries are computed but not retained (the cache degrades to a
// pass-through instead of growing without bound).
//
// Thread safety: Grams() may be called concurrently from join workers;
// lookups take a shared lock, insertions a unique one, and published
// vectors are immutable (shared_ptr<const ...>), so readers never see
// a partially built entry.

#ifndef HERA_TEXT_TOKEN_CACHE_H_
#define HERA_TEXT_TOKEN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hera {

/// \brief Content-addressed intern table for q-gram sets.
class TokenCache {
 public:
  using GramsPtr = std::shared_ptr<const std::vector<std::string>>;

  /// Point-in-time counters; hits/misses/skipped are cumulative.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Misses computed but not retained because the cache was full.
    uint64_t skipped_inserts = 0;
    size_t entries = 0;
  };

  /// \param q gram length the cached sets are built with.
  /// \param max_entries capacity ceiling (0 = unlimited).
  explicit TokenCache(int q, size_t max_entries = 1u << 20)
      : q_(q), max_entries_(max_entries) {}

  /// The q-gram set of `normalized` (sorted, deduplicated — the
  /// QgramSet contract), served from the cache when interned.
  GramsPtr Grams(const std::string& normalized);

  Stats stats() const;

  int q() const { return q_; }

 private:
  const int q_;
  const size_t max_entries_;

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, GramsPtr> map_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> skipped_inserts_{0};
};

}  // namespace hera

#endif  // HERA_TEXT_TOKEN_CACHE_H_
