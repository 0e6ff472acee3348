// Write-ahead log of the compare-and-merge loop.
//
// One WAL entry is appended (and fsync'd) per completed engine pass:
// the merges the pass applied — each with its field matching and the
// schema-matching predictions it recorded — plus the pass's statistic
// deltas and the deferred-group list left for the next pass. Replaying
// an entry runs the engine's own merge step and counter ledger on it,
// without re-running verification: SuperRecord::Merge and
// ValuePairIndex::ApplyMerge are deterministic given the logged
// matching, so snapshot + replay reconstructs the engine byte-for-byte
// (same merge_sequence, same clusters, same counters).
//
// On disk a WAL file is a sequence of CRC-framed blocks (codec.h), one
// entry per block, stamped with (epoch, seq). A torn tail — the block
// being appended when the process died — fails its CRC or length check
// and is discarded; every complete entry before it is replayed.

#ifndef HERA_PERSIST_WAL_H_
#define HERA_PERSIST_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "record/schema.h"
#include "record/super_record.h"

namespace hera {
namespace persist {

/// \brief One merge applied by a pass: absorb record j into record i
/// under the logged field matching, recording the logged predictions.
struct WalMerge {
  uint32_t i = 0;
  uint32_t j = 0;
  std::vector<FieldMatch> matching;
  std::vector<std::pair<AttrRef, AttrRef>> predictions;
};

/// \brief One completed engine pass.
struct WalEntry {
  uint64_t epoch = 0;      ///< Snapshot epoch this entry extends.
  uint64_t seq = 0;        ///< Position within the epoch, from 0.
  uint64_t iteration = 0;  ///< Engine iteration number of the pass.

  // Statistic deltas of the pass (counters not reconstructible from
  // the merges alone).
  uint64_t pruned = 0;
  uint64_t direct = 0;
  uint64_t candidates = 0;
  uint64_t comparisons = 0;
  uint64_t deferred_groups = 0;
  double simplified_sum = 0.0;
  uint64_t simplified_count = 0;
  /// Groups that entered best-first frontier ordering this pass
  /// (progressive mode; 0 otherwise).
  uint64_t frontier_groups = 0;
  /// Groups deferred unverified at a budget/guard cut this pass.
  uint64_t budget_deferred = 0;

  std::vector<WalMerge> merges;
  /// Candidate groups the pass deferred to the next iteration.
  std::vector<std::pair<uint32_t, uint32_t>> deferred_after;
};

/// Serializes one entry (payload only; the caller frames it).
std::string EncodeWalEntry(const WalEntry& entry);

/// Parses one entry payload.
StatusOr<WalEntry> DecodeWalEntry(std::string_view payload);

/// \brief Result of reading a WAL file.
struct WalReadResult {
  std::vector<WalEntry> entries;  ///< Complete, in-sequence entries.
  bool torn = false;              ///< True when a trailing partial/corrupt
                                  ///< block (or sequence break) was dropped.
};

/// Reads every complete entry of `file_image` that belongs to `epoch`
/// and continues the 0-based sequence. The first bad block or sequence
/// break marks the tail as torn; entries before it are returned.
WalReadResult ReadWalImage(std::string_view file_image, uint64_t epoch);

}  // namespace persist
}  // namespace hera

#endif  // HERA_PERSIST_WAL_H_
