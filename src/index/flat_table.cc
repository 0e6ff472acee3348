#include "index/flat_table.h"

#include <algorithm>
#include <utility>

namespace hera {

namespace {

constexpr size_t kMinCapacity = 16;

/// Max load factor 3/4: grow when size * 4 > capacity * 3.
bool OverLoaded(size_t size, size_t capacity) {
  return size * 4 > capacity * 3;
}

size_t NextPow2(size_t n) {
  size_t p = kMinCapacity;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t FlatTable::ProbeFrom(Key key, size_t bucket) const {
  size_t b = bucket;
  while (keys_[b] != kEmptyKey && keys_[b] != key) {
    b = (b + 1) & mask_;
  }
  return b;
}

FlatTable::Value* FlatTable::Find(Key key) {
  assert(key != kEmptyKey);
  if (keys_.empty()) return nullptr;
  size_t b = ProbeFrom(key, Bucket(key));
  return keys_[b] == key ? &vals_[b] : nullptr;
}

const FlatTable::Value* FlatTable::Find(Key key) const {
  assert(key != kEmptyKey);
  if (keys_.empty()) return nullptr;
  size_t b = ProbeFrom(key, Bucket(key));
  return keys_[b] == key ? &vals_[b] : nullptr;
}

FlatTable::Value* FlatTable::FindOrInsert(Key key, Value init) {
  assert(key != kEmptyKey);
  EnsureSpace();
  size_t b = ProbeFrom(key, Bucket(key));
  if (keys_[b] != key) {
    keys_[b] = key;
    vals_[b] = init;
    ++size_;
  }
  return &vals_[b];
}

bool FlatTable::Erase(Key key) {
  assert(key != kEmptyKey);
  if (keys_.empty()) return false;
  size_t b = ProbeFrom(key, Bucket(key));
  if (keys_[b] != key) return false;
  // Backward-shift deletion: close the hole by sliding every cluster
  // element whose home bucket lies at or before the hole, so no
  // tombstone is ever needed and probe chains stay minimal.
  size_t hole = b;
  size_t i = (hole + 1) & mask_;
  while (keys_[i] != kEmptyKey) {
    const size_t home = Bucket(keys_[i]);
    if (((i - home) & mask_) >= ((i - hole) & mask_)) {
      keys_[hole] = keys_[i];
      vals_[hole] = vals_[i];
      hole = i;
    }
    i = (i + 1) & mask_;
  }
  keys_[hole] = kEmptyKey;
  --size_;
  return true;
}

void FlatTable::Clear() {
  std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  size_ = 0;
}

void FlatTable::Reserve(size_t n) {
  // Smallest power-of-two capacity holding n entries under max load.
  size_t need = kMinCapacity;
  while (OverLoaded(n, need)) need <<= 1;
  if (need > keys_.size()) Rehash(NextPow2(need));
}

void FlatTable::Rehash(size_t new_capacity) {
  assert((new_capacity & (new_capacity - 1)) == 0);
  std::vector<Key> old_keys = std::move(keys_);
  std::vector<Value> old_vals = std::move(vals_);
  keys_.assign(new_capacity, kEmptyKey);
  vals_.assign(new_capacity, 0);
  mask_ = new_capacity - 1;
  for (size_t b = 0; b < old_keys.size(); ++b) {
    if (old_keys[b] == kEmptyKey) continue;
    size_t nb = ProbeFrom(old_keys[b], Bucket(old_keys[b]));
    keys_[nb] = old_keys[b];
    vals_[nb] = old_vals[b];
  }
}

void FlatTable::EnsureSpace() {
  if (keys_.empty()) {
    Rehash(kMinCapacity);
  } else if (OverLoaded(size_ + 1, keys_.size())) {
    Rehash(keys_.size() * 2);
  }
}

}  // namespace hera
