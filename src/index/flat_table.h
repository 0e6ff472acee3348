// Flat open-addressing hash table: the value-pair index's group map
// (GroupKey(rid1, rid2) -> group id, see index/value_pair_index.h).
// Power-of-two capacity, linear probing, tombstone-free backward-shift
// deletion, uint64 keys and values.

#ifndef HERA_INDEX_FLAT_TABLE_H_
#define HERA_INDEX_FLAT_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hera {

/// \brief Open-addressing uint64 -> uint64 hash table.
///
/// Not thread-safe for mutation; concurrent const Find calls are safe.
class FlatTable {
 public:
  using Key = uint64_t;
  using Value = uint64_t;

  /// Reserved empty-bucket marker; never insertable as a key.
  static constexpr Key kEmptyKey = ~0ull;

  /// Pointer to the value stored under `key`, or nullptr. Valid until
  /// the next rehashing mutation (FindOrInsert / Reserve / Erase).
  Value* Find(Key key);
  const Value* Find(Key key) const;

  /// Pointer to the value under `key`, inserting `init` first if the
  /// key is absent. May rehash (invalidating previous pointers).
  Value* FindOrInsert(Key key, Value init);

  /// Removes `key` via backward-shift deletion (the table never holds
  /// tombstones, so probe distances cannot rot over a delete-heavy
  /// workload). Returns false if the key was absent.
  bool Erase(Key key);

  /// Drops every entry, keeping the allocated capacity.
  void Clear();

  /// Grows capacity so `n` entries fit without rehashing.
  void Reserve(size_t n);

  /// Visits every (key, value) entry in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t b = 0; b < keys_.size(); ++b) {
      if (keys_[b] != kEmptyKey) fn(keys_[b], vals_[b]);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return keys_.size(); }

 private:
  /// splitmix64 finalizer: full-avalanche mix so dense ids spread over
  /// the power-of-two bucket space.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t Bucket(Key key) const { return Mix(key) & mask_; }

  /// Linear probe starting at `bucket`; returns the key's slot or the
  /// first empty slot (insertion point).
  size_t ProbeFrom(Key key, size_t bucket) const;

  /// Grows to `new_capacity` buckets (a power of two) and reinserts.
  void Rehash(size_t new_capacity);
  /// Ensures one more insert stays under the max load factor.
  void EnsureSpace();

  std::vector<Key> keys_;
  std::vector<Value> vals_;
  size_t mask_ = 0;  // capacity() - 1 when allocated.
  size_t size_ = 0;
};

}  // namespace hera

#endif  // HERA_INDEX_FLAT_TABLE_H_
