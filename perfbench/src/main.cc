// perfbench_hera: the compiled half of the end-to-end benchmark. run.py
// drives it; each subcommand prints one JSON object as its last line.
//
//   perfbench_hera generate --workload W --scale S --seed N --out FILE
//   perfbench_hera resolve  --workload W --scale S --corpus FILE
//   perfbench_hera trace    --workload W --scale S --corpus FILE
//                           --seconds T --spans-out FILE
//   perfbench_hera env      --workload W --scale S

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "commands.h"
#include "data/csv.h"

namespace {

const char* Flag(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_hera generate|resolve|trace|env --workload W "
               "[--scale full|small] ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const char* name = Flag(argc, argv, "--workload", nullptr);
  if (name == nullptr) return Usage();
  hera::StatusOr<perfbench::Workload> workload =
      perfbench::FindWorkload(name, Flag(argc, argv, "--scale", "full"));
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 2;
  }

  if (cmd == "env") {
    std::printf("%s\n", perfbench::EnvironmentJson(*workload).c_str());
    return 0;
  }
  if (cmd == "generate") {
    const char* out = Flag(argc, argv, "--out", nullptr);
    if (out == nullptr) return Usage();
    const uint64_t seed = std::strtoull(Flag(argc, argv, "--seed", "7"), nullptr, 10);
    hera::Dataset ds = perfbench::GenerateCorpus(*workload, seed);
    hera::Status st = hera::WriteDataset(ds, out);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("{\"records\":%zu,\"entities\":%zu}\n", ds.size(), ds.NumEntities());
    return 0;
  }
  const char* corpus = Flag(argc, argv, "--corpus", nullptr);
  if (corpus == nullptr) return Usage();
  if (cmd == "resolve") return perfbench::CmdResolve(*workload, corpus);
  if (cmd == "trace") {
    const char* spans_out = Flag(argc, argv, "--spans-out", nullptr);
    if (spans_out == nullptr) return Usage();
    return perfbench::CmdTrace(*workload, corpus,
                               std::atof(Flag(argc, argv, "--seconds", "0")), spans_out);
  }
  return Usage();
}
