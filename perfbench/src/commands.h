// Subcommands of perfbench_hera. Each prints one JSON object on the
// last line of stdout and returns the process exit code.

#ifndef PERFBENCH_COMMANDS_H_
#define PERFBENCH_COMMANDS_H_

#include <string>

#include "workloads.h"

namespace perfbench {

/// Reads `corpus` 20 times (each read timed: setup_s), then
/// resolves it once through Hera::Run with report collection off
/// (resolve_s). Prints the times, peak RSS, outcome, labels
/// fingerprint, |S|, merges and pairwise F1.
int CmdResolve(const Workload& workload, const std::string& corpus);

/// The traced run: untraced Hera::Run repetitions for `seconds`, then
/// the staged engine, the join/build probe, the pass-1 sweep and the
/// merge-path replay, each timed through the layers' public calls.
/// Prints the per-layer metrics and the self-check tally; writes the
/// spans to `spans_out` as a Chrome trace.
int CmdTrace(const Workload& workload, const std::string& corpus,
             double seconds, const std::string& spans_out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMANDS_H_
