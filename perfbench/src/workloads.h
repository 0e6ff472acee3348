// Workload table and shared helpers of the end-to-end benchmark.
//
// A workload is a seeded corpus (generated with the library's data/
// generators) plus the HeraOptions it is resolved with. Two scales
// exist: "full" is what the benchmark measures, "small" is a shrunken
// corpus of the same shape for the benchmark's own smoke test.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/options.h"
#include "record/dataset.h"

namespace perfbench {

struct Workload {
  /// "movies" or "ambiguous".
  std::string domain;
  /// movies: records and entities; ambiguous: entities and decoys.
  size_t records = 0;
  size_t entities = 0;
  size_t decoys = 0;
  hera::HeraOptions options;
};

/// The workload `name` at `scale` ("full" or "small").
hera::StatusOr<Workload> FindWorkload(const std::string& name,
                                      const std::string& scale);

/// Generates the workload's corpus from `seed` (ground truth included).
hera::Dataset GenerateCorpus(const Workload& workload, uint64_t seed);

/// FNV-1a 64 over the label vector, as 16 hex digits.
std::string LabelsFingerprint(const std::vector<uint32_t>& labels);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Build type, resolved kernel tier, thread count and nproc as a JSON
/// object (no trailing newline).
std::string EnvironmentJson(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
