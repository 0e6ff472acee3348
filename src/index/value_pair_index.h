// The value-pair index of Section III (Definition 6).
//
// Stores every similar value pair (simv >= ξ, different records),
// labeled ((rid1,fid1,vid1),(rid2,fid2,vid2)) with rid1 < rid2, ordered
// by (rid1 asc, rid2 asc, sim desc) — exactly the paper's sort, with the
// pair id (pid) breaking similarity ties.
//
// The store is one vector per (rid1, rid2) group, sorted by (sim desc,
// pid), reached through a hash map keyed on the group and through a
// per-record list of its groups. Pair slots hold global value ids
// (gvids) instead of labels; a gvid -> (rid, fid, vid) table holds the
// current labels. That is what makes merge maintenance (Section III-B2,
// Proposition 4) cost what the absorbed record owns: a merge rewrites
// the table entries of the two records' values, drops the intra-record
// group, and moves the absorbed record's groups under the survivor. The
// survivor's own pairs are never touched.

#ifndef HERA_INDEX_VALUE_PAIR_INDEX_H_
#define HERA_INDEX_VALUE_PAIR_INDEX_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "index/flat_table.h"
#include "simjoin/similarity_join.h"

namespace hera {

/// One index entry: pid (stable identity), the two labels, similarity.
struct IndexedPair {
  uint64_t pid = 0;
  ValueLabel a;  // a.rid < b.rid invariant.
  ValueLabel b;
  double sim = 0.0;
};

/// \brief Sorted value-pair index with merge maintenance.
class ValuePairIndex {
 public:
  ValuePairIndex() = default;

  ValuePairIndex(ValuePairIndex&&) noexcept = default;
  ValuePairIndex& operator=(ValuePairIndex&&) noexcept = default;

  /// Ignored (see IndexBackend); remains only for perfbench's traced
  /// run until a benchmark change drops the call.
  void SetBackend(IndexBackend /*backend*/, size_t /*pipeline_depth*/) {}

  /// Installs resource ceilings (0 = unlimited): `max_pairs` caps the
  /// total pair count, `max_per_record` caps one record's posting list
  /// (pairs touching it). AddPairs rejects pairs beyond a ceiling and
  /// counts them as shed — feed pairs strongest-first so the weakest
  /// are what gets dropped. Merge maintenance is exempt: relabeling an
  /// existing pair never sheds it.
  void SetCeilings(size_t max_pairs, size_t max_per_record) {
    max_pairs_ = max_pairs;
    max_per_record_ = max_per_record;
  }

  /// Pairs rejected by the max_pairs ceiling.
  size_t shed_pairs() const { return shed_pairs_; }
  /// Pairs rejected by the per-record posting-list ceiling.
  size_t shed_posting_entries() const { return shed_posting_entries_; }

  /// Ingests join output. Each pair is normalized so a.rid < b.rid and
  /// assigned a pid. Replaces any previous contents.
  void Build(const std::vector<ValuePair>& pairs);

  /// Adds further pairs to an existing index (fresh pids); used by
  /// incremental resolution when new records arrive. Honors the
  /// ceilings (see SetCeilings).
  void AddPairs(const std::vector<ValuePair>& pairs);

  /// Number of value pairs currently stored (the |S| of Table II at
  /// build time).
  size_t size() const { return size_; }

  /// All pairs for the record pair (i, j), descending similarity.
  /// Order of i and j does not matter. Counts one probe.
  std::vector<IndexedPair> PairsFor(uint32_t i, uint32_t j) const;

  /// Keys of every non-empty (rid1, rid2) group, rid1 < rid2, in index
  /// order (rid1 asc, rid2 asc).
  std::vector<std::pair<uint32_t, uint32_t>> GroupKeys() const;

  /// GroupKeys() restricted to the groups that touch a record in
  /// `rids` (duplicates and unknown rids are fine). Costs the groups of
  /// those records, not the whole index.
  std::vector<std::pair<uint32_t, uint32_t>> GroupKeysTouching(
      const std::vector<uint32_t>& rids) const;

  /// Visits every non-empty (rid1, rid2) group in index order; `pairs`
  /// is sorted by descending similarity.
  void ForEachGroup(
      const std::function<void(uint32_t rid1, uint32_t rid2,
                               const std::vector<IndexedPair>& pairs)>& fn) const;

  /// Applies the merge of records `rid_i` and `rid_j` into `new_rid`
  /// (Section III-B2): deletes the pairs between the two records,
  /// rewrites labels per `remap` (from SuperRecord::Merge), and moves
  /// the absorbed record's groups under the survivor. `new_rid` must be
  /// `rid_i` or `rid_j`, and `remap` must cover every indexed value of
  /// both records.
  void ApplyMerge(uint32_t rid_i, uint32_t rid_j, uint32_t new_rid,
                  const std::vector<std::pair<ValueLabel, ValueLabel>>& remap);

  /// Visits every live record's posting-list length (pairs touching
  /// it); feeds the observability layer's posting-length histogram.
  void ForEachPostingLength(
      const std::function<void(uint32_t rid, size_t len)>& fn) const;

  /// PairsFor lookups served since construction (probe traffic; never
  /// reset by Build).
  size_t probe_count() const { return probe_count_; }

  /// Heap bytes held by the index: the capacity of the pair slots, the
  /// label table, the group table and map, and the per-record lists.
  size_t HeapBytes() const;

  /// All pairs in index order (for tests / checkpoint export).
  std::vector<IndexedPair> Dump() const;

  /// Next pid AddPairs would assign (checkpoint export).
  uint64_t next_pid() const { return next_pid_; }

  /// Replaces the contents with checkpointed pairs, preserving each
  /// pair's pid exactly — pid is the sort tie-breaker for
  /// equal-similarity pairs, so fresh pids could reorder candidate
  /// groups and break the byte-identical-resume guarantee. Ceilings are
  /// not consulted (the pairs already passed them when first added);
  /// the shed/probe counters are restored verbatim.
  void RestoreState(const std::vector<IndexedPair>& pairs, uint64_t next_pid,
                    size_t shed_pairs, size_t shed_posting_entries,
                    uint64_t probe_count);

  /// Verifies invariants (a.rid < b.rid, ordering, secondary indexes
  /// consistent). Returns false and stops at the first violation.
  bool CheckInvariants() const;

 private:
  /// One stored pair: the two values' gvids (ga's record is the
  /// group's rid1), the similarity, and the pid. 24 bytes.
  struct Slot {
    uint32_t ga;
    uint32_t gb;
    double sim;
    uint64_t pid;
  };

  /// The pairs of one (rid1, rid2) group, sorted by (sim desc, pid),
  /// and the group's position in each record's group list.
  struct Group {
    uint32_t rid1 = 0;
    uint32_t rid2 = 0;
    uint32_t pos1 = 0;  // Index in records_[rid1].groups.
    uint32_t pos2 = 0;  // Index in records_[rid2].groups.
    std::vector<Slot> slots;
  };

  /// Per-record state, indexed by rid.
  struct RecordEntry {
    std::vector<uint32_t> groups;  // Ids of the groups touching it.
    std::vector<uint32_t> gvids;   // Its values, sorted by (fid, vid, gvid).
    size_t pairs = 0;              // Pairs touching it (posting length).
  };

  static uint64_t GroupKey(uint32_t rid1, uint32_t rid2) {
    return (static_cast<uint64_t>(rid1) << 32) | rid2;
  }
  static bool SlotBefore(const Slot& x, const Slot& y) {
    if (x.sim != y.sim) return x.sim > y.sim;
    return x.pid < y.pid;
  }

  void Clear();
  RecordEntry& Record(uint32_t rid);
  /// The gvid holding `label`, interning a fresh one if none does.
  uint32_t Intern(const ValueLabel& label);
  /// The group (rid1, rid2), created empty and linked if absent.
  uint32_t FindOrAddGroup(uint32_t rid1, uint32_t rid2);
  /// Appends a pair without restoring the group's order; returns the
  /// group id.
  uint32_t Append(uint64_t pid, const ValueLabel& a, const ValueLabel& b,
                  double sim);
  /// Restores (sim desc, pid) order in the appended-to groups and trims
  /// the capacity of the grown vectors.
  void FinishAppends(std::vector<uint32_t> touched);
  /// Live group ids in index order.
  std::vector<uint32_t> SortedGroupIds() const;
  /// Unlinks group `g` from `rid`'s group list in O(1).
  void Unlink(uint32_t g, uint32_t rid);
  /// Frees group `g`'s slots and id; its key must already be unmapped.
  void Release(uint32_t g);
  IndexedPair Expand(const Slot& s) const {
    return {s.pid, labels_[s.ga], labels_[s.gb], s.sim};
  }

  std::vector<Group> groups_;
  std::vector<uint32_t> free_groups_;
  /// GroupKey(rid1, rid2) -> index into groups_.
  FlatTable group_of_;
  std::vector<RecordEntry> records_;
  /// gvid -> current label.
  std::vector<ValueLabel> labels_;
  size_t size_ = 0;
  uint64_t next_pid_ = 0;

  size_t max_pairs_ = 0;
  size_t max_per_record_ = 0;
  size_t shed_pairs_ = 0;
  size_t shed_posting_entries_ = 0;
  /// Mutable so the const PairsFor can count its calls.
  mutable uint64_t probe_count_ = 0;
};

}  // namespace hera

#endif  // HERA_INDEX_VALUE_PAIR_INDEX_H_
