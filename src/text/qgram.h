// q-gram extraction.
//
// Jaccard over q-gram sets is the paper's default value similarity
// ("take Jaccard as similarity metric ... we set 2 q-grams"). Grams are
// returned sorted and deduplicated so that set intersection / union are
// linear merges, and optionally as sorted integer token ids (via
// QgramDictionary) for the similarity-join prefix filter.

#ifndef HERA_TEXT_QGRAM_H_
#define HERA_TEXT_QGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hera {

/// Extracts the set of q-grams of `s`, sorted and deduplicated.
///
/// Strings shorter than q yield a single gram equal to the whole string
/// (so "LA" with q=3 still has a token to match on). Empty input yields
/// an empty set.
std::vector<std::string> QgramSet(std::string_view s, int q);

/// Jaccard similarity of two sorted, deduplicated gram sets.
double JaccardOfSets(const std::vector<std::string>& a,
                     const std::vector<std::string>& b);

/// Overlap |a ∩ b| of two sorted, deduplicated gram sets.
size_t OverlapOfSets(const std::vector<std::string>& a,
                     const std::vector<std::string>& b);

/// \brief Interns q-grams as dense integer ids ordered by ascending
/// global frequency (the canonical ordering for prefix filtering).
///
/// Build in two passes: Add() every string, then Freeze(), then Encode().
class QgramDictionary {
 public:
  explicit QgramDictionary(int q) : q_(q) {}

  /// Counts the grams of one string (pass 1).
  void Add(std::string_view s);

  /// Counts an already-extracted gram set (pass 1); `grams` must be the
  /// QgramSet of one string (sorted, deduplicated). Lets a caller that
  /// already holds the gram sets skip re-extraction. `count`
  /// adds the set that many times, as if once per occurrence of a
  /// string that recurs: ids depend on occurrence frequencies.
  void AddGrams(const std::vector<std::string>& grams, uint64_t count = 1);

  /// Assigns ids: rarest gram gets the smallest id. Must be called once
  /// after all Add() calls and before Encode().
  void Freeze();

  /// Encodes a string as a sorted vector of gram ids (ascending id ==
  /// ascending frequency). Unknown grams are assigned fresh ids on the
  /// fly (treated as globally rare).
  std::vector<uint32_t> Encode(std::string_view s);

  /// Encode() over an already-extracted gram set (same unknown-gram
  /// handling); the counterpart of AddGrams.
  std::vector<uint32_t> EncodeGrams(const std::vector<std::string>& grams);

  int q() const { return q_; }
  size_t vocab_size() const { return id_of_.size(); }
  bool frozen() const { return frozen_; }

 private:
  int q_;
  bool frozen_ = false;
  std::unordered_map<std::string, uint64_t> counts_;
  std::unordered_map<std::string, uint32_t> id_of_;
  uint32_t next_id_ = 0;
};

}  // namespace hera

#endif  // HERA_TEXT_QGRAM_H_
