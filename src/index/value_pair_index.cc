#include "index/value_pair_index.h"

#include <algorithm>
#include <cassert>

namespace hera {

namespace {

/// group_of_ value of a key FindOrInsert has just added.
constexpr uint64_t kNoGroup = ~0ull;

bool SameValue(const ValueLabel& x, const ValueLabel& y) {
  return x.fid == y.fid && x.vid == y.vid;
}

bool ValueBefore(const ValueLabel& x, const ValueLabel& y) {
  return x.fid != y.fid ? x.fid < y.fid : x.vid < y.vid;
}

}  // namespace

void ValuePairIndex::Clear() {
  groups_ = std::vector<Group>();
  free_groups_ = std::vector<uint32_t>();
  group_of_ = FlatTable();
  records_ = std::vector<RecordEntry>();
  labels_ = std::vector<ValueLabel>();
  size_ = 0;
}

void ValuePairIndex::Build(const std::vector<ValuePair>& pairs) {
  Clear();
  next_pid_ = 0;
  shed_pairs_ = 0;
  shed_posting_entries_ = 0;
  AddPairs(pairs);
}

ValuePairIndex::RecordEntry& ValuePairIndex::Record(uint32_t rid) {
  if (rid >= records_.size()) records_.resize(static_cast<size_t>(rid) + 1);
  return records_[rid];
}

uint32_t ValuePairIndex::Intern(const ValueLabel& label) {
  std::vector<uint32_t>& gvids = Record(label.rid).gvids;
  auto it = std::lower_bound(
      gvids.begin(), gvids.end(), label,
      [&](uint32_t g, const ValueLabel& l) { return ValueBefore(labels_[g], l); });
  if (it != gvids.end() && SameValue(labels_[*it], label)) return *it;
  const auto g = static_cast<uint32_t>(labels_.size());
  labels_.push_back(label);
  gvids.insert(it, g);
  return g;
}

uint32_t ValuePairIndex::FindOrAddGroup(uint32_t rid1, uint32_t rid2) {
  uint64_t* slot = group_of_.FindOrInsert(GroupKey(rid1, rid2), kNoGroup);
  if (*slot != kNoGroup) return static_cast<uint32_t>(*slot);
  uint32_t g;
  if (!free_groups_.empty()) {
    g = free_groups_.back();
    free_groups_.pop_back();
  } else {
    g = static_cast<uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  *slot = g;
  Record(rid2);  // Sizes records_ for both rids before taking references.
  std::vector<uint32_t>& list1 = records_[rid1].groups;
  std::vector<uint32_t>& list2 = records_[rid2].groups;
  Group& grp = groups_[g];
  grp.rid1 = rid1;
  grp.rid2 = rid2;
  grp.pos1 = static_cast<uint32_t>(list1.size());
  grp.pos2 = static_cast<uint32_t>(list2.size());
  list1.push_back(g);
  list2.push_back(g);
  return g;
}

uint32_t ValuePairIndex::Append(uint64_t pid, const ValueLabel& a,
                                const ValueLabel& b, double sim) {
  assert(a.rid < b.rid);
  const uint32_t ga = Intern(a);
  const uint32_t gb = Intern(b);
  const uint32_t g = FindOrAddGroup(a.rid, b.rid);
  groups_[g].slots.push_back({ga, gb, sim, pid});
  ++records_[a.rid].pairs;
  ++records_[b.rid].pairs;
  ++size_;
  return g;
}

void ValuePairIndex::FinishAppends(std::vector<uint32_t> touched) {
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (uint32_t g : touched) {
    std::vector<Slot>& slots = groups_[g].slots;
    std::sort(slots.begin(), slots.end(), SlotBefore);
    slots.shrink_to_fit();
  }
  // Most groups hold one or two pairs, so the group table's growth
  // slack would cost more than the pairs themselves.
  groups_.shrink_to_fit();
  labels_.shrink_to_fit();
}

void ValuePairIndex::AddPairs(const std::vector<ValuePair>& pairs) {
  std::vector<uint32_t> touched;
  touched.reserve(pairs.size());
  for (const ValuePair& p : pairs) {
    ValueLabel a = p.a, b = p.b;
    assert(a.rid != b.rid);
    if (a.rid > b.rid) std::swap(a, b);
    if (max_pairs_ > 0 && size_ >= max_pairs_) {
      ++shed_pairs_;
      continue;
    }
    if (max_per_record_ > 0) {
      auto over = [&](uint32_t rid) {
        return rid < records_.size() && records_[rid].pairs >= max_per_record_;
      };
      if (over(a.rid) || over(b.rid)) {
        ++shed_posting_entries_;
        continue;
      }
    }
    touched.push_back(Append(next_pid_++, a, b, p.sim));
  }
  FinishAppends(std::move(touched));
}

std::vector<IndexedPair> ValuePairIndex::PairsFor(uint32_t i, uint32_t j) const {
  ++probe_count_;
  if (i > j) std::swap(i, j);
  std::vector<IndexedPair> out;
  if (i == j) return out;
  const uint64_t* g = group_of_.Find(GroupKey(i, j));
  if (g == nullptr) return out;
  const std::vector<Slot>& slots = groups_[*g].slots;
  out.reserve(slots.size());
  for (const Slot& s : slots) out.push_back(Expand(s));
  return out;
}

std::vector<uint32_t> ValuePairIndex::SortedGroupIds() const {
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  keyed.reserve(group_of_.size());
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    const Group& grp = groups_[g];
    if (!grp.slots.empty()) keyed.emplace_back(GroupKey(grp.rid1, grp.rid2), g);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> ids(keyed.size());
  for (size_t k = 0; k < keyed.size(); ++k) ids[k] = keyed[k].second;
  return ids;
}

std::vector<std::pair<uint32_t, uint32_t>> ValuePairIndex::GroupKeys() const {
  std::vector<std::pair<uint32_t, uint32_t>> keys;
  for (uint32_t g : SortedGroupIds()) {
    keys.emplace_back(groups_[g].rid1, groups_[g].rid2);
  }
  return keys;
}

std::vector<std::pair<uint32_t, uint32_t>> ValuePairIndex::GroupKeysTouching(
    const std::vector<uint32_t>& rids) const {
  std::vector<uint64_t> packed;
  for (uint32_t rid : rids) {
    if (rid >= records_.size()) continue;
    for (uint32_t g : records_[rid].groups) {
      packed.push_back(GroupKey(groups_[g].rid1, groups_[g].rid2));
    }
  }
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
  std::vector<std::pair<uint32_t, uint32_t>> keys(packed.size());
  for (size_t k = 0; k < packed.size(); ++k) {
    keys[k] = {static_cast<uint32_t>(packed[k] >> 32),
               static_cast<uint32_t>(packed[k])};
  }
  return keys;
}

void ValuePairIndex::ForEachGroup(
    const std::function<void(uint32_t, uint32_t, const std::vector<IndexedPair>&)>&
        fn) const {
  std::vector<IndexedPair> pairs;
  for (uint32_t g : SortedGroupIds()) {
    pairs.clear();
    for (const Slot& s : groups_[g].slots) pairs.push_back(Expand(s));
    fn(groups_[g].rid1, groups_[g].rid2, pairs);
  }
}

void ValuePairIndex::Unlink(uint32_t g, uint32_t rid) {
  const Group& grp = groups_[g];
  const uint32_t pos = grp.rid1 == rid ? grp.pos1 : grp.pos2;
  std::vector<uint32_t>& list = records_[rid].groups;
  const uint32_t last = list.back();
  list[pos] = last;
  list.pop_back();
  if (last != g) {
    Group& moved = groups_[last];
    (moved.rid1 == rid ? moved.pos1 : moved.pos2) = pos;
  }
}

void ValuePairIndex::Release(uint32_t g) {
  groups_[g].slots = std::vector<Slot>();
  free_groups_.push_back(g);
}

void ValuePairIndex::ApplyMerge(
    uint32_t rid_i, uint32_t rid_j, uint32_t new_rid,
    const std::vector<std::pair<ValueLabel, ValueLabel>>& remap) {
  assert(rid_i != rid_j);
  assert(new_rid == rid_i || new_rid == rid_j);
  const uint32_t s = new_rid;
  const uint32_t a = new_rid == rid_i ? rid_j : rid_i;  // Absorbed.
  Record(std::max(rid_i, rid_j));  // No resize below: references stay valid.
  RecordEntry& rs = records_[s];
  RecordEntry& ra = records_[a];

  // 1. Relabel both records' values through the remap. A value the
  // remap does not cover is in no pair any more (its last pairs were
  // deleted as intra-record by an earlier merge), so it is dropped.
  std::vector<std::pair<ValueLabel, ValueLabel>> by_old(remap);
  std::sort(by_old.begin(), by_old.end(),
            [](const std::pair<ValueLabel, ValueLabel>& x,
               const std::pair<ValueLabel, ValueLabel>& y) {
              return x.first < y.first;
            });
  std::vector<uint32_t> values;
  values.reserve(rs.gvids.size() + ra.gvids.size());
  for (const std::vector<uint32_t>* list : {&rs.gvids, &ra.gvids}) {
    for (uint32_t g : *list) {
      auto it = std::lower_bound(
          by_old.begin(), by_old.end(), labels_[g],
          [](const std::pair<ValueLabel, ValueLabel>& e, const ValueLabel& l) {
            return e.first < l;
          });
      if (it == by_old.end() || !(it->first == labels_[g])) continue;
      assert(it->second.rid == s && "merge remap must relabel onto new_rid");
      labels_[g] = it->second;
      values.push_back(g);
    }
  }
  std::sort(values.begin(), values.end(), [&](uint32_t x, uint32_t y) {
    if (!SameValue(labels_[x], labels_[y])) {
      return ValueBefore(labels_[x], labels_[y]);
    }
    return x < y;
  });
  rs.gvids = std::move(values);
  ra.gvids = std::vector<uint32_t>();

  // 2. The pairs between the two records became intra-record: delete.
  if (const uint64_t* found =
          group_of_.Find(GroupKey(std::min(s, a), std::max(s, a)))) {
    const auto g = static_cast<uint32_t>(*found);
    const size_t n = groups_[g].slots.size();
    rs.pairs -= n;
    ra.pairs -= n;
    size_ -= n;
    Unlink(g, s);
    Unlink(g, a);
    group_of_.Erase(GroupKey(groups_[g].rid1, groups_[g].rid2));
    Release(g);
  }

  // 3. Move each group (a, k) under the survivor as (s, k). A partner
  // between the two rids flips the group's orientation, so its slots
  // swap sides; (sim desc, pid) order does not depend on the sides.
  for (uint32_t g : ra.groups) {
    Group& grp = groups_[g];
    const bool a_first = grp.rid1 == a;
    const uint32_t k = a_first ? grp.rid2 : grp.rid1;
    const uint32_t pos_k = a_first ? grp.pos2 : grp.pos1;
    if ((a < k) != (s < k)) {
      for (Slot& slot : grp.slots) std::swap(slot.ga, slot.gb);
    }
    const uint32_t rid1 = std::min(s, k), rid2 = std::max(s, k);
    group_of_.Erase(GroupKey(grp.rid1, grp.rid2));
    uint64_t* target = group_of_.FindOrInsert(GroupKey(rid1, rid2), g);
    if (*target == g) {
      // No (s, k) group yet: re-key this one. k's list keeps its entry.
      const auto pos_s = static_cast<uint32_t>(rs.groups.size());
      rs.groups.push_back(g);
      grp.rid1 = rid1;
      grp.rid2 = rid2;
      grp.pos1 = rid1 == s ? pos_s : pos_k;
      grp.pos2 = rid1 == s ? pos_k : pos_s;
    } else {
      std::vector<Slot>& into = groups_[*target].slots;
      std::vector<Slot> merged(into.size() + grp.slots.size());
      std::merge(into.begin(), into.end(), grp.slots.begin(), grp.slots.end(),
                 merged.begin(), SlotBefore);
      into = std::move(merged);
      Unlink(g, k);
      Release(g);
    }
  }
  ra.groups = std::vector<uint32_t>();

  // 4. Every remaining pair of the absorbed record now touches the
  // survivor; partners' posting lengths do not change.
  rs.pairs += ra.pairs;
  ra.pairs = 0;
}

void ValuePairIndex::ForEachPostingLength(
    const std::function<void(uint32_t rid, size_t len)>& fn) const {
  for (uint32_t rid = 0; rid < records_.size(); ++rid) {
    if (records_[rid].pairs > 0) fn(rid, records_[rid].pairs);
  }
}

size_t ValuePairIndex::HeapBytes() const {
  size_t bytes = groups_.capacity() * sizeof(Group) +
                 free_groups_.capacity() * sizeof(uint32_t) +
                 group_of_.capacity() *
                     (sizeof(FlatTable::Key) + sizeof(FlatTable::Value)) +
                 records_.capacity() * sizeof(RecordEntry) +
                 labels_.capacity() * sizeof(ValueLabel);
  for (const Group& grp : groups_) bytes += grp.slots.capacity() * sizeof(Slot);
  for (const RecordEntry& rec : records_) {
    bytes += (rec.groups.capacity() + rec.gvids.capacity()) * sizeof(uint32_t);
  }
  return bytes;
}

std::vector<IndexedPair> ValuePairIndex::Dump() const {
  std::vector<IndexedPair> out;
  out.reserve(size_);
  for (uint32_t g : SortedGroupIds()) {
    for (const Slot& s : groups_[g].slots) out.push_back(Expand(s));
  }
  return out;
}

void ValuePairIndex::RestoreState(const std::vector<IndexedPair>& pairs,
                                  uint64_t next_pid, size_t shed_pairs,
                                  size_t shed_posting_entries,
                                  uint64_t probe_count) {
  Clear();
  std::vector<uint32_t> touched;
  touched.reserve(pairs.size());
  for (const IndexedPair& p : pairs) {
    touched.push_back(Append(p.pid, p.a, p.b, p.sim));
  }
  FinishAppends(std::move(touched));
  next_pid_ = next_pid;
  shed_pairs_ = shed_pairs;
  shed_posting_entries_ = shed_posting_entries;
  probe_count_ = probe_count;
}

bool ValuePairIndex::CheckInvariants() const {
  // Each record's value list: its own labels, sorted, each gvid listed
  // exactly once across all records.
  std::vector<bool> listed(labels_.size(), false);
  for (uint32_t rid = 0; rid < records_.size(); ++rid) {
    const std::vector<uint32_t>& gvids = records_[rid].gvids;
    for (size_t k = 0; k < gvids.size(); ++k) {
      const uint32_t g = gvids[k];
      if (g >= labels_.size() || listed[g] || labels_[g].rid != rid) return false;
      listed[g] = true;
      if (k > 0) {
        const ValueLabel& prev = labels_[gvids[k - 1]];
        if (ValueBefore(labels_[g], prev)) return false;
        if (SameValue(labels_[g], prev) && g < gvids[k - 1]) return false;
      }
    }
  }

  size_t live = 0, total = 0, links = 0;
  std::vector<size_t> touching(records_.size(), 0);
  std::vector<uint64_t> pids;
  pids.reserve(size_);
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    const Group& grp = groups_[g];
    if (grp.slots.empty()) continue;  // A freed id.
    ++live;
    if (grp.rid1 >= grp.rid2 || grp.rid2 >= records_.size()) return false;
    const uint64_t* mapped = group_of_.Find(GroupKey(grp.rid1, grp.rid2));
    if (mapped == nullptr || *mapped != g) return false;
    const std::vector<uint32_t>& list1 = records_[grp.rid1].groups;
    const std::vector<uint32_t>& list2 = records_[grp.rid2].groups;
    if (grp.pos1 >= list1.size() || list1[grp.pos1] != g) return false;
    if (grp.pos2 >= list2.size() || list2[grp.pos2] != g) return false;
    for (size_t k = 0; k < grp.slots.size(); ++k) {
      const Slot& s = grp.slots[k];
      if (s.ga >= labels_.size() || s.gb >= labels_.size()) return false;
      if (!listed[s.ga] || !listed[s.gb]) return false;
      if (labels_[s.ga].rid != grp.rid1 || labels_[s.gb].rid != grp.rid2) {
        return false;
      }
      if (k > 0 && !SlotBefore(grp.slots[k - 1], s)) return false;
      pids.push_back(s.pid);
    }
    total += grp.slots.size();
    touching[grp.rid1] += grp.slots.size();
    touching[grp.rid2] += grp.slots.size();
  }
  if (total != size_ || live != group_of_.size()) return false;
  if (live + free_groups_.size() != groups_.size()) return false;
  for (uint32_t rid = 0; rid < records_.size(); ++rid) {
    if (records_[rid].pairs != touching[rid]) return false;
    links += records_[rid].groups.size();
  }
  if (links != 2 * live) return false;
  std::sort(pids.begin(), pids.end());
  return std::adjacent_find(pids.begin(), pids.end()) == pids.end();
}

}  // namespace hera
