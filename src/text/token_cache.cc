#include "text/token_cache.h"

#include <mutex>
#include <utility>

#include "text/qgram.h"

namespace hera {

TokenCache::GramsPtr TokenCache::Grams(const std::string& normalized) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(normalized);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto grams =
      std::make_shared<const std::vector<std::string>>(QgramSet(normalized, q_));
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (max_entries_ > 0 && map_.size() >= max_entries_ &&
      map_.find(normalized) == map_.end()) {
    skipped_inserts_.fetch_add(1, std::memory_order_relaxed);
    return grams;
  }
  // Two workers can miss on the same key concurrently; the first
  // insert wins and both return the same published vector.
  auto [it, inserted] = map_.emplace(normalized, std::move(grams));
  return it->second;
}

TokenCache::Stats TokenCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.skipped_inserts = skipped_inserts_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  s.entries = map_.size();
  return s;
}

}  // namespace hera
