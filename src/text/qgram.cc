#include "text/qgram.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hera {

std::vector<std::string> QgramSet(std::string_view s, int q) {
  assert(q >= 1);
  std::vector<std::string> grams;
  if (s.empty()) return grams;
  if (static_cast<int>(s.size()) < q) {
    grams.emplace_back(s);
    return grams;
  }
  grams.reserve(s.size() - q + 1);
  for (size_t i = 0; i + q <= s.size(); ++i) {
    grams.emplace_back(s.substr(i, q));
  }
  std::sort(grams.begin(), grams.end());
  grams.erase(std::unique(grams.begin(), grams.end()), grams.end());
  return grams;
}

size_t OverlapOfSets(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  size_t i = 0, j = 0, overlap = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++overlap;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

double JaccardOfSets(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  // Empty gram sets carry no information: matching on nothing is not
  // evidence, so the score is 0 (not the conventional 1).
  if (a.empty() || b.empty()) return 0.0;
  size_t inter = OverlapOfSets(a, b);
  size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

void QgramDictionary::Add(std::string_view s) {
  AddGrams(QgramSet(s, q_));
}

void QgramDictionary::AddGrams(const std::vector<std::string>& grams,
                               uint64_t count) {
  assert(!frozen_);
  for (const std::string& g : grams) counts_[g] += count;
}

void QgramDictionary::Freeze() {
  assert(!frozen_);
  std::vector<std::pair<uint64_t, const std::string*>> by_freq;
  by_freq.reserve(counts_.size());
  for (const auto& [gram, count] : counts_) by_freq.emplace_back(count, &gram);
  std::sort(by_freq.begin(), by_freq.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return *a.second < *b.second;  // Tie-break for determinism.
            });
  for (const auto& [count, gram] : by_freq) {
    (void)count;
    id_of_.emplace(*gram, next_id_++);
  }
  counts_.clear();
  frozen_ = true;
}

std::vector<uint32_t> QgramDictionary::Encode(std::string_view s) {
  return EncodeGrams(QgramSet(s, q_));
}

std::vector<uint32_t> QgramDictionary::EncodeGrams(
    const std::vector<std::string>& grams) {
  assert(frozen_);
  std::vector<uint32_t> ids;
  ids.reserve(grams.size());
  for (const std::string& g : grams) {
    auto it = id_of_.find(g);
    if (it == id_of_.end()) {
      it = id_of_.emplace(g, next_id_++).first;
    }
    ids.push_back(it->second);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace hera
