#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "data/ambiguity_generator.h"
#include "data/movie_generator.h"
#include "obs/json.h"
#include "sim/kernel_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// min(4, nproc). Two workers were tried too: on a 4-core box their
/// run-to-run spread was no narrower than four workers', only slower.
size_t ParallelThreads() {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<size_t>(4, hw);
}

}  // namespace

hera::StatusOr<Workload> FindWorkload(const std::string& name,
                                      const std::string& scale) {
  if (scale != "full" && scale != "small") {
    return hera::Status::InvalidArgument("unknown scale: " + scale);
  }
  const bool small = scale == "small";
  Workload w;
  w.options.xi = 0.5;
  w.options.delta = 0.5;
  if (name == "movies-merge") {
    // The fixpoint loop is the largest stage, and most of it is index
    // maintenance (ValuePairIndex::ApplyMerge) across ~1800 merges.
    w.domain = "movies";
    w.records = small ? 200 : 2000;
    w.entities = small ? 15 : 150;
    w.options.metric = "jaccard_q2";
  } else if (name == "ambiguous-join") {
    // Join bound and verification heavy: the parallel prefix-filter
    // join, speculative phase A and KM verification.
    w.domain = "ambiguous";
    w.entities = small ? 100 : 1500;
    w.decoys = small ? 100 : 1500;
    w.options.metric = "jaccard_q2";
    w.options.num_threads = ParallelThreads();
  } else if (name == "movies-edit") {
    // The only non-kernel metric: heuristic prefix join, Myers edit
    // distance and the PairSimCache.
    w.domain = "movies";
    w.records = small ? 140 : 700;
    w.entities = small ? 20 : 100;
    w.options.metric = "edit";
  } else {
    return hera::Status::InvalidArgument("unknown workload: " + name);
  }
  return w;
}

hera::Dataset GenerateCorpus(const Workload& workload, uint64_t seed) {
  if (workload.domain == "ambiguous") {
    hera::AmbiguityGeneratorConfig config;
    config.num_entities = workload.entities;
    config.num_decoys = workload.decoys;
    config.seed = seed;
    return hera::GenerateAmbiguousDataset(config);
  }
  hera::MovieGeneratorConfig config;
  config.num_records = workload.records;
  config.num_entities = workload.entities;
  config.seed = seed;
  return hera::GenerateMovieDataset(config);
}

std::string LabelsFingerprint(const std::vector<uint32_t>& labels) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t label : labels) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (label >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string EnvironmentJson(const Workload& workload) {
  const hera::KernelDispatch tier =
      hera::ResolveKernelDispatch(workload.options.kernel_dispatch);
  hera::obs::JsonWriter w;
  w.BeginObject()
      .Key("build_type").String(PERFBENCH_BUILD_TYPE)
      .Key("kernel_dispatch").String(hera::KernelDispatchToString(tier))
      .Key("num_threads").UInt(std::max<size_t>(1, workload.options.num_threads))
      .Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN))
      .EndObject();
  return w.str();
}

}  // namespace perfbench
