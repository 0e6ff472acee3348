// Durability tests: the checksummed codec, snapshot/WAL round-trips,
// corruption fuzzing, and end-to-end crash/resume equivalence — the
// checkpointed artifacts must either reconstruct the engine
// byte-for-byte or fail with a clean Status, never crash or silently
// diverge.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/file_util.h"
#include "common/run_guard.h"
#include "common/status.h"
#include "core/hera.h"
#include "core/incremental.h"
#include "core/options.h"
#include "data/ambiguity_generator.h"
#include "data/publication_generator.h"
#ifndef HERA_DISABLE_OBS
#include "obs/perfetto.h"
#endif
#include "persist/checkpoint.h"
#include "persist/codec.h"
#include "record/dataset.h"
#include "testing_util.h"

namespace hera {
namespace {

using persist::AppendBlock;
using persist::ByteReader;
using persist::ByteWriter;
using persist::Crc32;
using persist::ReadBlock;

/// Fresh, empty per-test directory under the gtest temp root.
std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "/persist_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A dataset small enough for tight test loops but noisy enough (extra
/// nulls and typos) to need several compare-and-merge passes with some
/// groups going through KM verification rather than the bound shortcuts.
Dataset MakePublications(uint64_t seed = 7) {
  PublicationGeneratorConfig config;
  config.num_records = 160;
  config.num_entities = 25;
  config.seed = seed;
  config.null_prob = 0.2;
  config.corruption.typo_prob = 0.45;
  return GeneratePublicationDataset(config);
}

/// A verification-heavy corpus for budget-cut tests: the publication
/// generator resolves almost entirely via bound shortcuts, while every
/// merge here costs a KM verification (plus decoys that verify to
/// non-matches), so small budgets genuinely bind mid-run.
Dataset MakeAmbiguous() {
  AmbiguityGeneratorConfig config;
  config.num_entities = 12;
  config.num_decoys = 8;
  config.seed = 7;
  return GenerateAmbiguousDataset(config);
}

/// Snapshot filenames in `dir`, ascending by epoch.
std::vector<std::string> SnapshotFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Flips one bit of the file in place.
void FlipFileBit(const std::string& path, size_t byte, int bit) {
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = std::move(content).value();
  ASSERT_LT(byte, bytes.size());
  bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
}

// ---------------------------------------------------------------------------
// Codec primitives.

TEST(PersistCodecTest, ScalarAndStringRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF64(-1234.5678);
  w.PutF64(0.0);
  w.PutString("hello");
  w.PutString("");  // Empty strings must survive.
  ByteReader r(w.str());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f1 = 0, f2 = 1;
  std::string s1, s2 = "x";
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetF64(&f1).ok());
  ASSERT_TRUE(r.GetF64(&f2).ok());
  ASSERT_TRUE(r.GetString(&s1).ok());
  ASSERT_TRUE(r.GetString(&s2).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f1, -1234.5678);  // Bit-pattern transport: exact.
  EXPECT_EQ(f2, 0.0);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  EXPECT_TRUE(r.AtEnd());
  // Reading past the end is a clean error, not UB.
  EXPECT_FALSE(r.GetU8(&u8).ok());
}

TEST(PersistCodecTest, ReaderRefusesTruncatedString) {
  ByteWriter w;
  w.PutString("hello");
  std::string bytes = w.str();
  // Length prefix says 5 but only 3 payload bytes remain.
  ByteReader r(std::string_view(bytes.data(), bytes.size() - 2));
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kIOError);
}

TEST(PersistCodecTest, BlockFramingRoundTripAndCleanEof) {
  std::string file;
  AppendBlock(&file, "first payload");
  AppendBlock(&file, "");  // Empty payloads are legal blocks.
  AppendBlock(&file, "third");
  size_t pos = 0;
  std::string payload;
  ASSERT_TRUE(ReadBlock(file, &pos, &payload).ok());
  EXPECT_EQ(payload, "first payload");
  ASSERT_TRUE(ReadBlock(file, &pos, &payload).ok());
  EXPECT_EQ(payload, "");
  ASSERT_TRUE(ReadBlock(file, &pos, &payload).ok());
  EXPECT_EQ(payload, "third");
  EXPECT_EQ(ReadBlock(file, &pos, &payload).code(), StatusCode::kNotFound);
}

TEST(PersistCodecTest, BlockFramingDetectsTruncationAndBitFlips) {
  std::string file;
  AppendBlock(&file, "some payload worth protecting");
  // Any truncation is an IOError, never a bogus payload.
  for (size_t n = 1; n < file.size(); ++n) {
    size_t pos = 0;
    std::string payload;
    EXPECT_EQ(ReadBlock(std::string_view(file.data(), n), &pos, &payload)
                  .code(),
              StatusCode::kIOError)
        << "truncated to " << n;
  }
  // Any single-bit flip fails the CRC (or the frame checks).
  for (size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = file;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      size_t pos = 0;
      std::string payload;
      EXPECT_FALSE(ReadBlock(mutated, &pos, &payload).ok())
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(PersistCodecTest, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// ---------------------------------------------------------------------------
// File utilities.

TEST(FileUtilTest, AtomicWriteReadBackAndOverwrite) {
  std::string dir = TestDir("file_util");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  std::string path = dir + "/artifact.json";
  ASSERT_TRUE(AtomicWriteFile(path, "v1").ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "v1");
  ASSERT_TRUE(AtomicWriteFile(path, "v2 is longer").ok());
  back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "v2 is longer");
  // No temporary siblings left behind.
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(FileUtilTest, ReadMissingFileIsNotFound) {
  EXPECT_EQ(ReadFileToString(TestDir("missing") + "/nope").status().code(),
            StatusCode::kNotFound);
}

TEST(FileUtilTest, EnsureDirectoryCreatesNestedAndIsIdempotent) {
  std::string dir = TestDir("nested") + "/a/b/c";
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

// ---------------------------------------------------------------------------
// WAL entry codec.

persist::WalEntry MakeWalEntry(uint64_t seq) {
  persist::WalEntry e;
  e.epoch = 3;
  e.seq = seq;
  e.iteration = 10 + seq;
  e.pruned = 4;
  e.direct = 1;
  e.candidates = 9;
  e.comparisons = 5;
  e.deferred_groups = 2;
  e.simplified_sum = 12.5;
  e.simplified_count = 3;
  persist::WalMerge m;
  m.i = 7;
  m.j = 42;
  m.matching = {{0, 1, 0.9}, {2, 2, 0.75}};
  m.predictions = {{AttrRef{0, 1}, AttrRef{1, 2}}};
  e.merges.push_back(std::move(m));
  e.deferred_after = {{3, 9}, {11, 12}};
  return e;
}

TEST(PersistWalTest, EntryEncodingRoundTripsExactly) {
  persist::WalEntry e = MakeWalEntry(0);
  auto decoded = persist::DecodeWalEntry(persist::EncodeWalEntry(e));
  ASSERT_TRUE(decoded.ok());
  // Re-encoding the decoded entry must reproduce the bytes: the codec
  // is deterministic and loses nothing.
  EXPECT_EQ(persist::EncodeWalEntry(*decoded), persist::EncodeWalEntry(e));
  EXPECT_EQ(decoded->merges.size(), 1u);
  EXPECT_EQ(decoded->merges[0].matching.size(), 2u);
  EXPECT_EQ(decoded->merges[0].predictions.size(), 1u);
  EXPECT_EQ(decoded->deferred_after, e.deferred_after);
}

TEST(PersistWalTest, ImageReaderDropsTornTailKeepsPrefix) {
  std::string image;
  AppendBlock(&image, persist::EncodeWalEntry(MakeWalEntry(0)));
  const size_t first_block_end = image.size();
  AppendBlock(&image, persist::EncodeWalEntry(MakeWalEntry(1)));

  persist::WalReadResult whole = persist::ReadWalImage(image, 3);
  EXPECT_EQ(whole.entries.size(), 2u);
  EXPECT_FALSE(whole.torn);

  // Every truncation yields a clean prefix of the full entry list, torn
  // unless the cut lands exactly on a block boundary.
  for (size_t n = 0; n < image.size(); ++n) {
    persist::WalReadResult r =
        persist::ReadWalImage(std::string_view(image.data(), n), 3);
    ASSERT_LE(r.entries.size(), 2u);
    for (size_t k = 0; k < r.entries.size(); ++k) {
      EXPECT_EQ(r.entries[k].seq, k);
      EXPECT_EQ(persist::EncodeWalEntry(r.entries[k]),
                persist::EncodeWalEntry(whole.entries[k]));
    }
    if (n != 0 && n != first_block_end) {
      EXPECT_TRUE(r.torn) << "len " << n;
    }
  }
  // Bit flips never yield extra or reordered entries.
  for (size_t byte = 0; byte < image.size(); ++byte) {
    std::string mutated = image;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 1);
    persist::WalReadResult r = persist::ReadWalImage(mutated, 3);
    ASSERT_LE(r.entries.size(), 2u);
    for (size_t k = 0; k < r.entries.size(); ++k) {
      EXPECT_EQ(r.entries[k].seq, k);
    }
  }
}

TEST(PersistWalTest, ImageReaderRejectsWrongEpochAndSequenceBreak) {
  std::string image;
  AppendBlock(&image, persist::EncodeWalEntry(MakeWalEntry(0)));
  persist::WalReadResult wrong_epoch = persist::ReadWalImage(image, 4);
  EXPECT_TRUE(wrong_epoch.entries.empty());
  EXPECT_TRUE(wrong_epoch.torn);

  std::string gap;
  AppendBlock(&gap, persist::EncodeWalEntry(MakeWalEntry(0)));
  AppendBlock(&gap, persist::EncodeWalEntry(MakeWalEntry(2)));  // seq 1 missing
  persist::WalReadResult broken = persist::ReadWalImage(gap, 3);
  EXPECT_EQ(broken.entries.size(), 1u);
  EXPECT_TRUE(broken.torn);
}

// ---------------------------------------------------------------------------
// Snapshot round-trip + fuzz, over a real engine state.

/// Runs a checkpointed batch resolution and returns the newest
/// snapshot's raw bytes.
std::string CheckpointedSnapshotImage(const std::string& dir) {
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 1;
  auto result = Hera(opts).Run(ds);
  EXPECT_TRUE(result.ok()) << result.status();
  std::vector<std::string> snaps = SnapshotFiles(dir);
  EXPECT_FALSE(snaps.empty());
  auto image = ReadFileToString(snaps.back());
  EXPECT_TRUE(image.ok());
  return std::move(image).value();
}

TEST(PersistSnapshotTest, DecodeEncodeIsByteIdentical) {
  std::string image = CheckpointedSnapshotImage(TestDir("snap_roundtrip"));
  auto decoded = persist::DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // The engine wrote real super records, index pairs, votes and stats;
  // re-encoding what we decoded must reproduce the file exactly.
  EXPECT_EQ(persist::EncodeSnapshot(decoded->header, decoded->state), image);
  EXPECT_GT(decoded->state.num_records, 0u);
  EXPECT_FALSE(decoded->state.super_records.empty());
  EXPECT_FALSE(decoded->state.stats.merge_sequence.empty());
}

TEST(PersistSnapshotTest, FuzzTruncationAtEveryByteFailsCleanly) {
  std::string image = CheckpointedSnapshotImage(TestDir("snap_trunc"));
  ASSERT_GT(image.size(), 64u);
  for (size_t n = 0; n < image.size(); ++n) {
    auto decoded =
        persist::DecodeSnapshot(std::string_view(image.data(), n));
    EXPECT_FALSE(decoded.ok()) << "truncated to " << n << " decoded";
  }
}

TEST(PersistSnapshotTest, FuzzSingleBitFlipsFailCleanly) {
  std::string image = CheckpointedSnapshotImage(TestDir("snap_flip"));
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      auto decoded = persist::DecodeSnapshot(mutated);
      EXPECT_FALSE(decoded.ok())
          << "flip at byte " << byte << " bit " << bit << " decoded";
    }
  }
}

TEST(PersistSnapshotTest, FingerprintsSeparateOptionsAndData) {
  HeraOptions a;
  HeraOptions b = a;
  b.xi = 0.61;
  EXPECT_NE(persist::FingerprintOptions(a), persist::FingerprintOptions(b));
  // Resume may legitimately change caps, threads, guard, cadence.
  HeraOptions c = a;
  c.max_iterations = 3;
  c.num_threads = 8;
  c.checkpoint_every = 1;
  c.guard.WithTimeoutMs(5.0);
  EXPECT_EQ(persist::FingerprintOptions(a), persist::FingerprintOptions(c));

  Dataset d1 = MakePublications(7);
  Dataset d2 = MakePublications(8);
  EXPECT_NE(persist::FingerprintDataset(d1), persist::FingerprintDataset(d2));
  EXPECT_EQ(persist::FingerprintSchemas(d1.schemas()),
            persist::FingerprintSchemas(d2.schemas()));
}

// ---------------------------------------------------------------------------
// End-to-end batch crash/resume.

TEST(PersistResumeTest, ResumeReproducesReferenceAtEveryIterationCut) {
  Dataset ds = MakePublications();
  HeraOptions base;
  auto ref = Hera(base).Run(ds);
  ASSERT_TRUE(ref.ok());
  ASSERT_GE(ref->stats.iterations, 3u)
      << "dataset too easy to exercise multi-pass resume";

  // Cut the run at every iteration boundary (the iteration cap stops
  // at exactly the safe points a kill + recovery would resume from)
  // and resume; the merge sequence and labels must be byte-identical
  // to the uninterrupted reference, with no double-applied merges.
  for (size_t k = 1; k < ref->stats.iterations; ++k) {
    HeraOptions opts = base;
    opts.checkpoint_dir = TestDir("cut_" + std::to_string(k));
    opts.checkpoint_every = 1;
    opts.max_iterations = k;
    auto cut = Hera(opts).Run(ds);
    ASSERT_TRUE(cut.ok()) << cut.status();
    ASSERT_EQ(cut->stats.outcome, RunOutcome::kIterationCap);

    HeraOptions ropts = opts;
    ropts.max_iterations = base.max_iterations;
    auto resumed = Hera(ropts).Resume(ds);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(resumed->stats.outcome, RunOutcome::kCompleted);
    EXPECT_EQ(resumed->entity_of, ref->entity_of) << "cut at " << k;
    EXPECT_EQ(resumed->stats.merge_sequence, ref->stats.merge_sequence)
        << "cut at " << k;
    EXPECT_EQ(resumed->stats.merges, ref->stats.merges);
    EXPECT_EQ(resumed->stats.comparisons, ref->stats.comparisons);
    EXPECT_EQ(resumed->stats.iterations, ref->stats.iterations);
    std::filesystem::remove_all(opts.checkpoint_dir);
  }
}

// Progressive budget cuts are durable stopping points: cutting a run
// at any verification budget and resuming with the budget lifted must
// land on exactly the labels of the uninterrupted run. Deferral is
// confluent — the cut changes *when* groups are verified, never what
// the fixpoint concludes — and labels are canonical min-rid names, so
// label equality is exact, not just partition-isomorphic.
TEST(PersistResumeTest, ResumeReproducesLabelsAtEveryBudgetCut) {
  Dataset ds = MakeAmbiguous();
  HeraOptions base;
  auto ref = Hera(base).Run(ds);
  ASSERT_TRUE(ref.ok());

  // The cut grid must cover the *governed progressive* run's own
  // verification count: the frontier reorders verification, so its
  // total can differ from the canonical run's. A budget of k binds iff
  // the unlimited governed run spends more than k.
  HeraOptions gauge = base;
  gauge.progressive = true;
  gauge.guard.WithMaxVerifications(1u << 30);
  auto gauged = Hera(gauge).Run(ds);
  ASSERT_TRUE(gauged.ok());
  ASSERT_EQ(gauged->stats.outcome, RunOutcome::kCompleted);
  ASSERT_EQ(gauged->entity_of, ref->entity_of);
  const size_t total_verifications = gauged->stats.candidates;
  ASSERT_GE(total_verifications, 8u)
      << "dataset too easy to exercise budget cuts";

  // Serial sweeps a dense grid of cut points; the threaded run
  // spot-checks a coarse set — the cut machinery is identical, only
  // the join's internals differ.
  struct Config {
    size_t threads;
    bool dense;
  };
  const Config configs[] = {{0, true}, {4, false}};
  for (const Config& config : configs) {
    std::vector<size_t> cuts;
    if (config.dense) {
      const size_t stride = std::max<size_t>(1, total_verifications / 12);
      for (size_t k = 1; k < total_verifications; k += stride) cuts.push_back(k);
    } else {
      cuts = {1, total_verifications / 2, total_verifications - 1};
    }
    for (size_t k : cuts) {
      HeraOptions opts = base;
      opts.num_threads = config.threads;
      opts.progressive = true;
      opts.checkpoint_dir = TestDir("budget_cut_" + std::to_string(k));
      opts.checkpoint_every = 1;
      opts.guard.WithMaxVerifications(k);
      auto cut = Hera(opts).Run(ds);
      ASSERT_TRUE(cut.ok()) << cut.status();
      ASSERT_EQ(cut->stats.outcome, RunOutcome::kTruncatedBudget)
          << "budget " << k;
      ASSERT_EQ(cut->stats.candidates, k);

      HeraOptions ropts = opts;
      ropts.guard = RunGuard();  // Lift the budget; fresh guard.
      auto resumed = Hera(ropts).Resume(ds);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(resumed->stats.outcome, RunOutcome::kCompleted)
          << "budget " << k;
      EXPECT_EQ(resumed->entity_of, ref->entity_of)
          << "budget " << k << " threads " << config.threads;
      std::filesystem::remove_all(opts.checkpoint_dir);
    }
  }
}

TEST(PersistResumeTest, ResumeAfterCompletedRunIsIdempotent) {
  Dataset ds = MakePublications();
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("idempotent");
  opts.checkpoint_every = 2;
  auto ref = Hera(opts).Run(ds);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->stats.outcome, RunOutcome::kCompleted);
  auto resumed = Hera(opts).Resume(ds);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->entity_of, ref->entity_of);
  EXPECT_EQ(resumed->stats.merge_sequence, ref->stats.merge_sequence);
  EXPECT_EQ(resumed->stats.merges, ref->stats.merges);
}

TEST(PersistResumeTest, ResumeWithoutSnapshotIsNotFound) {
  Dataset ds = MakePublications();
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("empty_dir");
  ASSERT_TRUE(EnsureDirectory(opts.checkpoint_dir).ok());
  EXPECT_EQ(Hera(opts).Resume(ds).status().code(), StatusCode::kNotFound);
  // A directory that does not exist at all reads the same way.
  opts.checkpoint_dir = TestDir("never_created");
  EXPECT_EQ(Hera(opts).Resume(ds).status().code(), StatusCode::kNotFound);
}

TEST(PersistResumeTest, ResumeRefusesChangedOptionsDatasetOrKind) {
  Dataset ds = MakePublications();
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("fingerprints");
  opts.max_iterations = 2;  // Leave the run unfinished, checkpointed.
  opts.checkpoint_every = 1;
  ASSERT_TRUE(Hera(opts).Run(ds).ok());

  HeraOptions changed = opts;
  changed.xi = 0.62;
  EXPECT_EQ(Hera(changed).Resume(ds).status().code(),
            StatusCode::kFailedPrecondition);

  Dataset other = MakePublications(13);
  EXPECT_EQ(Hera(opts).Resume(other).status().code(),
            StatusCode::kFailedPrecondition);

  // A batch checkpoint cannot be opened as an incremental run.
  auto inc = IncrementalHera::Restore(opts, ds.schemas());
  EXPECT_EQ(inc.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PersistResumeTest, CorruptNewestSnapshotFallsBackCorruptAllFails) {
  Dataset ds = MakePublications();
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("fallback");
  opts.checkpoint_every = 1;
  auto ref = Hera(opts).Run(ds);
  ASSERT_TRUE(ref.ok());

  std::vector<std::string> snaps = SnapshotFiles(opts.checkpoint_dir);
  ASSERT_GE(snaps.size(), 2u) << "retention should keep two epochs";
  // A flipped bit in the newest snapshot: recovery falls back to the
  // previous epoch (and its WAL) and still reproduces the reference.
  FlipFileBit(snaps.back(), 100, 3);
  auto resumed = Hera(opts).Resume(ds);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->entity_of, ref->entity_of);
  EXPECT_EQ(resumed->stats.merge_sequence, ref->stats.merge_sequence);

  // With every snapshot corrupt there is nothing left to fall back to.
  for (const std::string& path : SnapshotFiles(opts.checkpoint_dir)) {
    FlipFileBit(path, 70, 5);
  }
  EXPECT_EQ(Hera(opts).Resume(ds).status().code(), StatusCode::kIOError);
}

TEST(PersistResumeTest, TornWalTailIsDroppedNotFatal) {
  Dataset ds = MakePublications();
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("torn_wal");
  opts.checkpoint_every = 1;
  auto ref = Hera(opts).Run(ds);
  ASSERT_TRUE(ref.ok());

  // Simulate a crash mid-append: garbage after the newest epoch's
  // snapshot looks like a torn WAL block and must be dropped cleanly.
  std::vector<std::string> snaps = SnapshotFiles(opts.checkpoint_dir);
  ASSERT_FALSE(snaps.empty());
  std::string newest = snaps.back();
  std::string wal_path = newest;
  wal_path.replace(wal_path.rfind("snapshot-"), 9, "wal-");
  ASSERT_TRUE(AtomicWriteFile(wal_path, "garbage-not-a-valid-frame").ok());
  auto resumed = Hera(opts).Resume(ds);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->entity_of, ref->entity_of);
}

#ifndef HERA_DISABLE_OBS

TEST(PersistResumeTest, TimelineStitchesAcrossResume) {
  Dataset ds = MakePublications();
  HeraOptions base;
  auto ref = Hera(base).Run(ds);
  ASSERT_TRUE(ref.ok());
  ASSERT_GE(ref->stats.iterations, 3u);

  // Cut the run at the first iteration boundary with profiling on.
  HeraOptions opts = base;
  opts.checkpoint_dir = TestDir("timeline_stitch");
  opts.checkpoint_every = 1;
  opts.max_iterations = 1;
  opts.collect_report = true;
  opts.timeline_interval_ms = 1;
  auto cut = Hera(opts).Run(ds);
  ASSERT_TRUE(cut.ok()) << cut.status();
  ASSERT_EQ(cut->stats.outcome, RunOutcome::kIterationCap);
  ASSERT_TRUE(cut->report.collected);
  ASSERT_GE(cut->report.timeline.samples.size(), 2u);
  // The pre-cut process's timeline starts at (near) zero run time.
  EXPECT_LT(cut->report.timeline.samples.front().t_ms,
            cut->stats.index_build_ms + cut->stats.total_ms + 1.0);
  const double cut_elapsed = cut->stats.index_build_ms + cut->stats.total_ms;

  // Resume in a fresh process (engine): the restored time base stitches
  // the resumed samples onto the end of the pre-cut run's clock.
  HeraOptions ropts = opts;
  ropts.max_iterations = base.max_iterations;
  auto resumed = Hera(ropts).Resume(ds);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->entity_of, ref->entity_of);
  EXPECT_EQ(resumed->stats.merge_sequence, ref->stats.merge_sequence);

  const obs::RunReport& r = resumed->report;
  ASSERT_TRUE(r.collected);
  ASSERT_GE(r.timeline.samples.size(), 2u);
  // Stitched: the resumed process's first sample continues at the
  // restored run time, not at zero.
  EXPECT_GE(r.timeline.samples.front().t_ms, cut_elapsed);
  double prev = 0.0;
  for (const auto& s : r.timeline.samples) {
    EXPECT_GE(s.t_ms, prev);
    prev = s.t_ms;
  }
  // Per-iteration quality rows continue on the same stitched clock.
  ASSERT_FALSE(r.iterations.empty());
  EXPECT_GE(r.iterations.front().t_ms, cut_elapsed);
  prev = 0.0;
  for (const auto& row : r.iterations) {
    EXPECT_GE(row.t_ms, prev);
    prev = row.t_ms;
  }

  // Checkpoint epochs surface in the exported trace as instant events.
  const std::string trace = obs::ExportChromeTrace(r);
  EXPECT_NE(trace.find("persist.snapshot"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
}

#endif  // HERA_DISABLE_OBS

// ---------------------------------------------------------------------------
// Incremental restore after a governed (truncated) round.

#ifndef HERA_DISABLE_FAILPOINTS

TEST(PersistIncrementalTest, RestoreContinuesGuardTruncatedRoundExactly) {
  Dataset ds = MakePublications(3);

  // Reference: one uninterrupted incremental round, with verify.km
  // armed as a pure hit counter (trips=0 never fires, only counts).
  failpoint::Arm("verify.km", Status::OK(), /*skip=*/0, /*trips=*/0);
  auto ref_or = IncrementalHera::Create(HeraOptions{}, ds.schemas());
  ASSERT_TRUE(ref_or.ok());
  IncrementalHera& ref = **ref_or;
  for (const Record& r : ds.records()) {
    ASSERT_TRUE(ref.AddRecord(r.schema_id(), r.values()).ok());
  }
  ASSERT_TRUE(ref.Resolve().ok());
  ASSERT_EQ(ref.stats().outcome, RunOutcome::kCompleted);
  const size_t ref_verifications = failpoint::HitCount("verify.km");
  const size_t ref_merges = ref.stats().merges;
  const std::vector<uint32_t> ref_labels = ref.Labels();
  const auto ref_merge_sequence = ref.stats().merge_sequence;
  failpoint::DisarmAll();
  ASSERT_GE(ref_verifications, 2u);
  ASSERT_GE(ref_merges, 8u);

  // Interrupted: the guard's cancellation token fires mid-round, after
  // roughly half the reference's merges — a deterministic stand-in for
  // a deadline expiring mid-fixpoint. The engine stops at the next
  // pass boundary with the round checkpointed.
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("inc_truncated");
  opts.checkpoint_every = 1;
  CancellationToken token = CancellationToken::Make();
  opts.guard.WithCancellation(token);
  failpoint::Arm("verify.km", Status::OK(), /*skip=*/0, /*trips=*/0);
  failpoint::Arm("engine.merge", Status::OK(),
                 /*skip=*/static_cast<int>(ref_merges / 2) - 1, /*trips=*/1);
  int observer_tag = 0;
  failpoint::SetTripObserver(
      &observer_tag, [&token](const char* /*site*/) { token.RequestCancel(); });
  {
    auto inc_or = IncrementalHera::Create(opts, ds.schemas());
    ASSERT_TRUE(inc_or.ok()) << inc_or.status();
    IncrementalHera& inc = **inc_or;
    for (const Record& r : ds.records()) {
      ASSERT_TRUE(inc.AddRecord(r.schema_id(), r.values()).ok());
    }
    auto round = inc.Resolve();
    ASSERT_TRUE(round.ok()) << round.status();
    ASSERT_EQ(inc.stats().outcome, RunOutcome::kTruncatedCancelled);
    EXPECT_LT(inc.stats().merges, ref_merges);
  }  // Destroyed: from here the checkpoint directory is all that's left.
  failpoint::ClearTripObserver(&observer_tag);
  const size_t interrupted_verifications = failpoint::HitCount("verify.km");
  failpoint::DisarmAll();

  // Restore from disk and finish the round. The continuation must
  // neither re-apply a logged merge nor re-verify a logged comparison:
  // the interrupted and resumed verification counts partition the
  // reference's, and the final merge sequence is byte-identical.
  failpoint::Arm("verify.km", Status::OK(), /*skip=*/0, /*trips=*/0);
  HeraOptions ropts = opts;
  ropts.guard = RunGuard();  // The old token stays cancelled; drop it.
  auto restored_or = IncrementalHera::Restore(ropts, ds.schemas());
  ASSERT_TRUE(restored_or.ok()) << restored_or.status();
  IncrementalHera& restored = **restored_or;
  EXPECT_EQ(restored.NumRecords(), ds.size());
  auto finish = restored.Resolve();
  ASSERT_TRUE(finish.ok()) << finish.status();
  const size_t resumed_verifications = failpoint::HitCount("verify.km");
  failpoint::DisarmAll();

  EXPECT_EQ(restored.stats().outcome, RunOutcome::kCompleted);
  EXPECT_EQ(restored.Labels(), ref_labels);
  EXPECT_EQ(restored.stats().merge_sequence, ref_merge_sequence);
  EXPECT_EQ(interrupted_verifications + resumed_verifications,
            ref_verifications)
      << "resume re-verified (or skipped) comparisons";
}

TEST(PersistIncrementalTest, PersistFailpointsAreKnownAndPropagate) {
  std::vector<std::string> sites = failpoint::KnownSites();
  for (const char* site :
       {"persist.snapshot", "persist.wal.append", "persist.recover"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  }
  // An injected WAL-append failure surfaces through the public API as
  // the armed status, not a crash or a silent success.
  Dataset ds = testing_util::MakeCustomersDataset();
  HeraOptions opts;
  opts.checkpoint_dir = TestDir("fp_propagate");
  opts.checkpoint_every = 1;
  failpoint::Arm("persist.wal.append", Status::IOError("disk full"));
  auto result = Hera(opts).Run(ds);
  failpoint::DisarmAll();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// A short write (ENOSPC-style) while persisting the budget-cut
// checkpoint must degrade to a clean error with the previous epoch
// intact — never a torn or half-replaced snapshot. The failpoint fires
// inside AtomicWriteFile, after the temp file is created but before
// any byte lands, which is exactly the window a full disk hits.
TEST(PersistIncrementalTest, ShortWriteAtBudgetCutKeepsPreviousEpochIntact) {
  Dataset ds = MakeAmbiguous();
  HeraOptions base;
  auto ref = Hera(base).Run(ds);
  ASSERT_TRUE(ref.ok());
  ASSERT_GE(ref->stats.candidates, 4u);

  // Leave a healthy checkpointed prefix on disk: cut by iterations.
  HeraOptions opts = base;
  opts.checkpoint_dir = TestDir("short_write");
  opts.checkpoint_every = 1;
  opts.max_iterations = 1;
  ASSERT_TRUE(Hera(opts).Run(ds).ok());
  std::vector<std::string> before = SnapshotFiles(opts.checkpoint_dir);
  ASSERT_FALSE(before.empty());

  // Resume under a binding budget with the write failpoint armed: the
  // budget cut tries to persist its truncation snapshot, the write
  // dies, and the run surfaces the injected error.
  HeraOptions cut_opts = opts;
  cut_opts.max_iterations = base.max_iterations;
  cut_opts.checkpoint_every = 1000;  // Only the truncation snapshot writes.
  cut_opts.progressive = true;
  cut_opts.guard = RunGuard();
  cut_opts.guard.WithMaxVerifications(2);
  failpoint::Arm("persist.write.short", Status::IOError("injected short write"));
  auto failed = Hera(cut_opts).Resume(ds);
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

  // The previous epochs are untouched and every snapshot still decodes;
  // no temp-file debris either.
  std::vector<std::string> after = SnapshotFiles(opts.checkpoint_dir);
  EXPECT_EQ(after, before);
  for (const std::string& path : after) {
    auto image = ReadFileToString(path);
    ASSERT_TRUE(image.ok());
    EXPECT_TRUE(persist::DecodeSnapshot(*image).ok()) << path;
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.checkpoint_dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }

  // Disarmed, the same directory resumes to the reference labels.
  HeraOptions ropts = opts;
  ropts.max_iterations = base.max_iterations;
  ropts.guard = RunGuard();
  auto resumed = Hera(ropts).Resume(ds);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->stats.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(resumed->entity_of, ref->entity_of);
}

#endif  // HERA_DISABLE_FAILPOINTS

}  // namespace
}  // namespace hera
