// Flat open-addressing hash table with a batched, software-prefetch
// pipelined probe API (the DRAMHiT recipe): power-of-two capacity,
// linear probing, tombstone-free backward-shift deletion, uint64 keys
// and values. The batched entry points issue a small ring of in-flight
// probes and prefetch each probe's bucket line `pipeline_depth` steps
// before it is walked, hiding DRAM latency behind useful work — which
// is what makes candidate generation (a pure probe storm) run at
// memory bandwidth instead of memory latency.
//
// For the join the table is a *backend*, selected by
// HeraOptions::index_backend: everything stored through it (gram ids,
// posting slots) is exact, so switching backends changes probe cost
// only — never which pairs a join emits or which merges the engine
// applies. The value-pair index keys its groups on one whatever the
// backend.

#ifndef HERA_INDEX_FLAT_TABLE_H_
#define HERA_INDEX_FLAT_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

// Software prefetch, compiled out under -DHERA_NO_PREFETCH (or on
// compilers without __builtin_prefetch). The batched API stays correct
// either way — prefetch is a hint, never a semantic.
#if !defined(HERA_NO_PREFETCH) && (defined(__GNUC__) || defined(__clang__))
#define HERA_PREFETCH_READ(addr) __builtin_prefetch((addr), 0, 1)
#define HERA_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1, 1)
#else
#define HERA_PREFETCH_READ(addr) ((void)sizeof(addr))
#define HERA_PREFETCH_WRITE(addr) ((void)sizeof(addr))
#endif

namespace hera {

/// Hash-structure backend for the join's candidate generation: the
/// ordered/node-based containers the paper's pseudocode implies, or
/// the flat batched table. A speed knob only — labels and
/// merge_sequence are byte-identical under either (see
/// docs/performance.md).
enum class IndexBackend {
  kOrdered = 0,  ///< std::map / std::unordered_map (the original path).
  kFlat = 1,     ///< FlatTable with prefetch-pipelined batch probes.
};

/// Stable name for a backend ("ordered" / "flat").
const char* IndexBackendToString(IndexBackend backend);

/// Inverse of IndexBackendToString. Returns false (and leaves `out`
/// untouched) on an unrecognized name.
bool IndexBackendFromString(const std::string& name, IndexBackend* out);

/// \brief Open-addressing uint64 -> uint64 hash table with batched,
/// prefetch-pipelined lookups.
///
/// Not thread-safe for mutation. Concurrent const probes (Find /
/// const FindBatch) are safe against each other; the batched-probe
/// counter is a relaxed atomic for exactly that case.
class FlatTable {
 public:
  using Key = uint64_t;
  using Value = uint64_t;

  /// Reserved empty-bucket marker; never insertable as a key.
  static constexpr Key kEmptyKey = ~0ull;
  /// In-flight probes per batch unless configured otherwise. Deep
  /// enough to cover DRAM latency at one cache-line walk per probe.
  static constexpr size_t kDefaultPipelineDepth = 8;
  /// Ring-buffer bound on the pipeline depth.
  static constexpr size_t kMaxPipelineDepth = 64;

  explicit FlatTable(size_t capacity_hint = 0,
                     size_t pipeline_depth = kDefaultPipelineDepth);

  FlatTable(FlatTable&&) noexcept = default;
  FlatTable& operator=(FlatTable&&) noexcept = default;

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

  /// Batched lookup: out[i] points at the value of keys[i] (nullptr if
  /// absent). Probes run through the prefetch pipeline — bucket lines
  /// are prefetched `pipeline_depth` probes ahead of their walk.
  /// keys.size() must equal out.size().
  void FindBatch(std::span<const Key> keys, std::span<Value*> out);
  void FindBatch(std::span<const Key> keys, std::span<const Value*> out) const;

  /// Batched find-or-insert through the same pipeline. Capacity for
  /// the worst case (every key new) is reserved up front, so the out
  /// pointers stay valid for the whole batch even as it inserts.
  /// Duplicate keys within one batch resolve to one slot, first
  /// occurrence inserting — encounter order, exactly like a scalar
  /// loop.
  void FindOrInsertBatch(std::span<const Key> keys, Value init,
                         std::span<Value*> out);

  /// Visits every (key, value) entry in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t b = 0; b < keys_.size(); ++b) {
      if (keys_[b] != kEmptyKey) fn(keys_[b], vals_[b]);
    }
  }

  size_t size() const { return size_; }
  size_t capacity() const { return keys_.size(); }
  size_t pipeline_depth() const { return depth_; }

  /// Keys probed through the batched entry points (obs counter feed).
  uint64_t batched_probes() const {
    return batched_probes_.load(std::memory_order_relaxed);
  }
  /// Capacity doublings since construction.
  uint64_t rehashes() const { return rehashes_; }

 private:
  /// splitmix64 finalizer: full-avalanche mix so dense ids and packed
  /// grams spread over the power-of-two bucket space.
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

  // Movable relaxed counter so the defaulted moves stay available; the
  // atomic exists only because concurrent const FindBatch calls (join
  // workers probing a frozen posting table) both bump it.
  struct RelaxedCounter {
    RelaxedCounter() = default;
    RelaxedCounter(RelaxedCounter&& o) noexcept
        : v(o.v.load(std::memory_order_relaxed)) {}
    RelaxedCounter& operator=(RelaxedCounter&& o) noexcept {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
    void Inc(uint64_t d) const { v.fetch_add(d, std::memory_order_relaxed); }
    uint64_t load(std::memory_order order) const { return v.load(order); }
    mutable std::atomic<uint64_t> v{0};
  };

  std::vector<Key> keys_;
  std::vector<Value> vals_;
  size_t mask_ = 0;  // capacity() - 1 when allocated.
  size_t size_ = 0;
  size_t depth_ = kDefaultPipelineDepth;
  RelaxedCounter batched_probes_;
  uint64_t rehashes_ = 0;
};

}  // namespace hera

#endif  // HERA_INDEX_FLAT_TABLE_H_
