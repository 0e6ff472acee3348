// hera_cli: run HERA over a dataset file from the command line.
//
//   hera_cli resolve <input.hera> [--xi X] [--delta D] [--metric NAME]
//                    [--threads N]
//                    [--out labels.csv] [--quiet]
//                    [--emit-report report.json] [--log-level LEVEL]
//                    [--trace-out trace.json] [--timeline-csv FILE]
//                    [--timeline-interval-ms MS]
//                    [--checkpoint-dir DIR] [--checkpoint-every K]
//                    [--resume] [--deadline-ms MS]
//                    [--progressive] [--max-verifications N]
//   hera_cli generate <movies|publications|ambiguous> <output.hera>
//                    [--records N] [--entities E] [--seed S] [--decoys D]
//   hera_cli stats <input.hera>
//
// `resolve` prints (or writes) one "record_id,entity_label" line per
// record plus a summary line on stderr: the index build (similarity
// join plus index insert), the compare-and-merge loop, and the wall
// time of the whole resolve. When the input carries ground truth it
// also reports precision/recall/F1. --emit-report turns on metric
// collection and writes the machine-readable run report (JSON; see
// docs/observability.md). --trace-out writes the run as a Chrome-trace
// JSON file (open at ui.perfetto.dev or chrome://tracing); it and
// --timeline-csv imply report collection and, unless overridden by
// --timeline-interval-ms, a 50 ms timeline sampler. Profiling is
// observation-only: labels and merge order are byte-identical with it
// on or off. --log-level (debug|info|warning|error|off)
// overrides the HERA_LOG_LEVEL environment variable. --threads (or the
// HERA_THREADS environment variable; the flag wins) sets
// HeraOptions::num_threads — results are identical at any setting (see
// docs/performance.md); the run report records the value used.
//
// Durability: --checkpoint-dir makes the run resumable after a kill or
// a --deadline-ms truncation (snapshots + WAL, docs/file_format.md);
// --resume continues from the directory's newest checkpoint (falling
// back to a fresh run when it holds none).
//
// Progressive mode: --progressive verifies candidate groups best-first
// (highest similarity upper bound first) whenever the run is governed,
// so a budget or deadline cut sheds the least promising work;
// --max-verifications N caps total verifier invocations (see
// docs/operational_limits.md, "Progressive mode"). SIGINT/SIGTERM are
// converted into cooperative cancellation: the run stops at its next
// safe point, checkpoints, and exits 2 with a resume hint.
//
// Numeric flags (and HERA_THREADS) must parse whole: counts are
// unsigned decimal integers, reals are finite decimals. A malformed
// value is a usage error that names the flag, and so is a `--` token
// the subcommand does not know (a typo is never silently ignored).
// --log-level is accepted by every subcommand.
//
// Exit codes: 0 the run completed; 2 the run ended governed (degraded,
// iteration cap, budget spent, or truncated — the labeling is valid
// and, with a checkpoint directory, resumable); 3 error (unreadable
// input, corrupt checkpoint, write failure); 64 usage error.

#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>

#include "common/file_util.h"
#include "common/logging.h"
#include "core/hera.h"
#include "data/ambiguity_generator.h"
#include "data/csv.h"
#include "data/profile.h"
#include "data/movie_generator.h"
#include "data/publication_generator.h"
#include "eval/cluster_metrics.h"
#include "eval/metrics.h"
#include "obs/perfetto.h"

using namespace hera;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hera_cli resolve <input.hera> [--xi X] [--delta D] [--metric NAME]\n"
      "                   [--threads N]\n"
      "                   [--out labels.csv] [--quiet]\n"
      "                   [--emit-report report.json] [--log-level LEVEL]\n"
      "                   [--trace-out trace.json] [--timeline-csv FILE]\n"
      "                   [--timeline-interval-ms MS]\n"
      "                   [--checkpoint-dir DIR] [--checkpoint-every K]\n"
      "                   [--resume] [--deadline-ms MS]\n"
      "                   [--progressive] [--max-verifications N]\n"
      "  hera_cli generate <movies|publications|ambiguous> <output.hera>\n"
      "                   [--records N] [--entities E] [--seed S]\n"
      "                   [--decoys D]   (ambiguous only; --records unused)\n"
      "  hera_cli stats <input.hera>\n");
  return 64;
}

/// Signal-to-cancellation bridge: SIGINT/SIGTERM request RunGuard
/// cancellation, so the run stops at its next safe point, writes its
/// checkpoint (when --checkpoint-dir is set), and exits 2 with a
/// resume hint instead of dying mid-write. RequestCancel is one
/// relaxed atomic store — async-signal-safe.
CancellationToken g_signal_cancel = CancellationToken::Make();

extern "C" void HandleStopSignal(int /*sig*/) {
  g_signal_cancel.RequestCancel();
}

/// Returns the value following `flag`, or nullptr.
const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// A flag a subcommand accepts; `takes_value` flags consume the next
/// token.
struct FlagSpec {
  const char* name;
  bool takes_value;
};

constexpr FlagSpec kResolveFlags[] = {
    {"--xi", true},
    {"--delta", true},
    {"--metric", true},
    {"--threads", true},
    {"--out", true},
    {"--quiet", false},
    {"--emit-report", true},
    {"--log-level", true},
    {"--trace-out", true},
    {"--timeline-csv", true},
    {"--timeline-interval-ms", true},
    {"--checkpoint-dir", true},
    {"--checkpoint-every", true},
    {"--resume", false},
    {"--deadline-ms", true},
    {"--progressive", false},
    {"--max-verifications", true},
};

constexpr FlagSpec kGenerateFlags[] = {
    {"--records", true}, {"--entities", true}, {"--seed", true},
    {"--decoys", true},  {"--log-level", true},
};

constexpr FlagSpec kStatsFlags[] = {{"--log-level", true}};

/// True when every `--` token in argv is one of `flags`. Otherwise
/// prints the first unknown one and returns false.
bool OnlyKnownFlags(int argc, char** argv, std::span<const FlagSpec> flags) {
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : flags) {
      if (std::strcmp(argv[i], f.name) == 0) spec = &f;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
    if (spec->takes_value) ++i;
  }
  return true;
}

/// Parses `text`, the value of flag or variable `name`, into `*out`
/// when `text` is non-null. The whole string must parse; an unsigned
/// `T` takes no sign and a floating `T` must be finite. On a malformed
/// value, prints `name` and returns false; `*out` is then unchanged.
template <typename T>
bool ParseNumber(const char* name, const char* text, T* out) {
  if (text == nullptr) return true;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "invalid value for %s: '%s' (want %s)\n", name,
                 text,
                 std::is_floating_point_v<T> ? "a finite number"
                                             : "a non-negative integer");
    return false;
  }
  *out = value;
  return true;
}

/// ParseNumber over the value of `flag`, if present.
template <typename T>
bool NumericFlag(int argc, char** argv, const char* flag, T* out) {
  return ParseNumber(flag, FlagValue(argc, argv, flag), out);
}

int CmdResolve(int argc, char** argv) {
  if (argc < 1 || !OnlyKnownFlags(argc, argv, kResolveFlags)) return Usage();
  HeraOptions opts;
  double deadline_ms = 0.0;
  size_t max_verifications = 0;
  const bool has_deadline = FlagValue(argc, argv, "--deadline-ms") != nullptr;
  const bool has_max_verifications =
      FlagValue(argc, argv, "--max-verifications") != nullptr;
  if (!NumericFlag(argc, argv, "--xi", &opts.xi) ||
      !NumericFlag(argc, argv, "--delta", &opts.delta) ||
      !ParseNumber("HERA_THREADS", std::getenv("HERA_THREADS"),
                   &opts.num_threads) ||
      !NumericFlag(argc, argv, "--threads", &opts.num_threads) ||
      !NumericFlag(argc, argv, "--checkpoint-every", &opts.checkpoint_every) ||
      !NumericFlag(argc, argv, "--deadline-ms", &deadline_ms) ||
      !NumericFlag(argc, argv, "--max-verifications", &max_verifications)) {
    return Usage();
  }
  if (const char* v = FlagValue(argc, argv, "--metric")) opts.metric = v;
  if (const char* v = FlagValue(argc, argv, "--checkpoint-dir")) {
    opts.checkpoint_dir = v;
  }
  if (has_deadline) opts.guard.WithTimeoutMs(deadline_ms);
  opts.progressive = HasFlag(argc, argv, "--progressive");
  if (has_max_verifications) opts.guard.WithMaxVerifications(max_verifications);
  const bool quiet_early = HasFlag(argc, argv, "--quiet");
  if (opts.progressive && !quiet_early) {
    opts.guard.WithBudgetObserver([](const char* reason) {
      std::fprintf(stderr,
                   "progressive cut (%s): draining frontier and writing "
                   "checkpoint\n",
                   reason);
    });
  }
  // An operator Ctrl-C (or a supervisor's SIGTERM) becomes cooperative
  // cancellation: the run ends governed at the next safe point with a
  // valid labeling, a final checkpoint, and exit code 2.
  opts.guard.WithCancellation(g_signal_cancel);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const bool resume = HasFlag(argc, argv, "--resume");
  if (resume && opts.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return Usage();
  }
  const bool quiet = HasFlag(argc, argv, "--quiet");
  const char* report_path = FlagValue(argc, argv, "--emit-report");
  const char* trace_path = FlagValue(argc, argv, "--trace-out");
  const char* timeline_csv_path = FlagValue(argc, argv, "--timeline-csv");
  opts.collect_report =
      report_path != nullptr || trace_path != nullptr ||
      timeline_csv_path != nullptr;
  // Trace/timeline output wants sampled counter tracks, so those flags
  // turn the sampler on at its 50 ms default unless the user sets an
  // explicit interval (0 disables the sampler but keeps span tracing).
  if (trace_path != nullptr || timeline_csv_path != nullptr) {
    opts.timeline_interval_ms = 50;
  }
  if (!NumericFlag(argc, argv, "--timeline-interval-ms",
                   &opts.timeline_interval_ms)) {
    return Usage();
  }

  auto ds = ReadDataset(argv[0]);
  if (!ds.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", argv[0],
                 ds.status().ToString().c_str());
    return 3;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  StatusOr<HeraResult> result =
      resume ? Hera(opts).Resume(*ds) : Hera(opts).Run(*ds);
  if (resume && !result.ok() &&
      result.status().code() == StatusCode::kNotFound) {
    std::fprintf(stderr, "no checkpoint in %s; starting a fresh run\n",
                 opts.checkpoint_dir.c_str());
    result = Hera(opts).Run(*ds);
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 3;
  }

  const char* out_path = FlagValue(argc, argv, "--out");
  if (out_path != nullptr) {
    std::string csv = "record_id,entity_label\n";
    for (uint32_t r = 0; r < ds->size(); ++r) {
      csv += std::to_string(r) + "," + std::to_string(result->entity_of[r]) +
             "\n";
    }
    Status wst = AtomicWriteFile(out_path, csv);
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_path,
                   wst.ToString().c_str());
      return 3;
    }
  } else if (!quiet) {
    std::printf("record_id,entity_label\n");
    for (uint32_t r = 0; r < ds->size(); ++r) {
      std::printf("%u,%u\n", r, result->entity_of[r]);
    }
  }

  const HeraStats& st = result->stats;
  std::fprintf(stderr,
               "records=%zu entities=%zu index=%zu iterations=%zu "
               "comparisons=%zu direct=%zu merges=%zu index_build=%.1fms "
               "loop=%.1fms wall=%.1fms\n",
               ds->size(), result->super_records.size(), st.index_size,
               st.iterations, st.comparisons, st.direct_merges, st.merges,
               st.index_build_ms, st.total_ms, wall_ms);
  int exit_code = 0;
  if (st.outcome != RunOutcome::kCompleted) {
    std::fprintf(stderr, "outcome=%s (run was governed; labeling is valid)\n",
                 RunOutcomeToString(st.outcome));
    if (!opts.checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "resume hint: rerun with --checkpoint-dir %s --resume to "
                   "continue this run\n",
                   opts.checkpoint_dir.c_str());
    }
    exit_code = 2;
  }
  if (report_path != nullptr) {
    Status wst = AtomicWriteFile(report_path, result->report.ToJson() + "\n");
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path,
                   wst.ToString().c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr, "%s", result->report.ToString().c_str());
      std::fprintf(stderr, "report written to %s\n", report_path);
    }
  }
  if (opts.collect_report && result->report.empty()) {
    std::fprintf(stderr,
                 "note: this build has observability compiled out "
                 "(-DHERA_OBS=OFF); report/trace/timeline output is "
                 "empty-but-valid\n");
  }
  if (trace_path != nullptr) {
    Status wst = AtomicWriteFile(trace_path,
                                 obs::ExportChromeTrace(result->report));
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", trace_path,
                   wst.ToString().c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "trace written to %s (open at ui.perfetto.dev)\n",
                   trace_path);
    }
  }
  if (timeline_csv_path != nullptr) {
    Status wst = AtomicWriteFile(timeline_csv_path,
                                 result->report.TimelineCsv());
    if (!wst.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", timeline_csv_path,
                   wst.ToString().c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr, "timeline written to %s\n", timeline_csv_path);
    }
  }
  if (ds->has_ground_truth()) {
    PairMetrics m = EvaluatePairs(result->entity_of, ds->entity_of());
    std::fprintf(stderr, "precision=%.3f recall=%.3f F1=%.3f ARI=%.3f\n",
                 m.precision, m.recall, m.f1,
                 AdjustedRandIndex(result->entity_of, ds->entity_of()));
  }
  return exit_code;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 2 || !OnlyKnownFlags(argc, argv, kGenerateFlags)) return Usage();
  std::string domain = argv[0];
  std::string out_path = argv[1];
  size_t records = 1000, entities = 150;
  uint64_t seed = 1;
  size_t decoys = 0;
  if (!NumericFlag(argc, argv, "--records", &records) ||
      !NumericFlag(argc, argv, "--entities", &entities) ||
      !NumericFlag(argc, argv, "--seed", &seed) ||
      !NumericFlag(argc, argv, "--decoys", &decoys)) {
    return Usage();
  }
  if (domain == "ambiguous") {
    // Verification-heavy corpus: every merge costs a KM verification,
    // decoys add verification-shaped non-matches. Record count follows
    // from entities and decoys, so --records does not apply.
    if (entities == 0) {
      std::fprintf(stderr, "need entities >= 1\n");
      return Usage();
    }
    AmbiguityGeneratorConfig config;
    config.num_entities = entities;
    config.seed = seed;
    config.num_decoys = decoys;
    Dataset ds = GenerateAmbiguousDataset(config);
    Status st = WriteDataset(ds, out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 3;
    }
    std::printf("wrote %zu records / %zu entities / %zu schemas to %s\n",
                ds.size(), ds.NumEntities(), ds.schemas().size(),
                out_path.c_str());
    return 0;
  }
  if (entities == 0 || records < entities) {
    std::fprintf(stderr, "need records >= entities >= 1\n");
    return Usage();
  }
  Dataset ds;
  if (domain == "movies") {
    MovieGeneratorConfig config;
    config.num_records = records;
    config.num_entities = entities;
    config.seed = seed;
    ds = GenerateMovieDataset(config);
  } else if (domain == "publications") {
    PublicationGeneratorConfig config;
    config.num_records = records;
    config.num_entities = entities;
    config.seed = seed;
    ds = GeneratePublicationDataset(config);
  } else {
    return Usage();
  }
  Status st = WriteDataset(ds, out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 3;
  }
  std::printf("wrote %zu records / %zu entities / %zu schemas to %s\n",
              ds.size(), ds.NumEntities(), ds.schemas().size(),
              out_path.c_str());
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1 || !OnlyKnownFlags(argc, argv, kStatsFlags)) return Usage();
  auto ds = ReadDataset(argv[0]);
  if (!ds.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", argv[0],
                 ds.status().ToString().c_str());
    return 3;
  }
  std::printf("records:             %zu\n", ds->size());
  std::printf("schemas:             %zu\n", ds->schemas().size());
  for (uint32_t s = 0; s < ds->schemas().size(); ++s) {
    size_t count = 0;
    for (const Record& r : ds->records()) {
      if (r.schema_id() == s) ++count;
    }
    std::printf("  %-16s %zu records, %zu attributes\n",
                ds->schemas().Get(s).name().c_str(), count,
                ds->schemas().Get(s).size());
  }
  std::printf("ground truth:        %s\n", ds->has_ground_truth() ? "yes" : "no");
  if (ds->has_ground_truth()) {
    std::printf("entities:            %zu\n", ds->NumEntities());
  }
  std::printf("distinct attributes: %zu\n", ds->NumDistinctAttributes());
  std::printf("\n%s", ProfileDataset(*ds).ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (const char* v = FlagValue(argc, argv, "--log-level")) {
    LogLevel level;
    if (!ParseLogLevel(v, &level)) {
      std::fprintf(stderr,
                   "unknown --log-level %s (want debug|info|warning|error|off)\n",
                   v);
      return 64;
    }
    SetLogLevel(level);
  }
  std::string cmd = argv[1];
  if (cmd == "resolve") return CmdResolve(argc - 2, argv + 2);
  if (cmd == "generate") return CmdGenerate(argc - 2, argv + 2);
  if (cmd == "stats") return CmdStats(argc - 2, argv + 2);
  return Usage();
}
