// The timed end-to-end path: ReadDataset + Hera(opts).Run, one resolve
// per process so peak RSS is that of a single resolve.

#include <cstdio>
#include <optional>
#include <vector>

#include "commands.h"
#include "common/timer.h"
#include "core/hera.h"
#include "data/csv.h"
#include "eval/metrics.h"
#include "obs/json.h"

namespace perfbench {

namespace {

// ReadDataset repetitions per process. run.py reports setup_s as the
// median over processes of each process's fastest read: other tenants
// of a shared host slow single ~1.5 ms reads by up to 2x.
constexpr int kSetupReps = 20;

}  // namespace

int CmdResolve(const Workload& workload, const std::string& corpus) {
  hera::obs::JsonWriter w;
  w.BeginObject();
  std::vector<double> setup_s;
  std::optional<hera::Dataset> dataset;
  hera::Status read_status;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dataset.reset();
    hera::Timer timer;
    hera::StatusOr<hera::Dataset> read = hera::ReadDataset(corpus);
    setup_s.push_back(timer.ElapsedSeconds());
    read_status = read.status();
    if (!read.ok()) break;
    dataset = std::move(read).value();
  }
  if (!read_status.ok()) {
    w.Key("status").String(read_status.ToString()).EndObject();
    std::printf("%s\n", w.str().c_str());
    return 1;
  }

  hera::Timer timer;
  hera::StatusOr<hera::HeraResult> result = hera::Hera(workload.options).Run(*dataset);
  const double resolve_s = timer.ElapsedSeconds();
  const double peak_rss_mb = PeakRssMb();

  w.Key("status").String(result.ok() ? "OK" : result.status().ToString());
  w.Key("setup_s").BeginArray();
  for (double s : setup_s) w.Number(s);
  w.EndArray();
  w.Key("resolve_s").Number(resolve_s);
  w.Key("peak_rss_mb").Number(peak_rss_mb);
  if (result.ok()) {
    const hera::HeraStats& stats = result->stats;
    w.Key("outcome").String(hera::RunOutcomeToString(stats.outcome));
    w.Key("labels_fp").String(LabelsFingerprint(result->entity_of));
    w.Key("index_size").UInt(stats.index_size);
    w.Key("merges").UInt(stats.merges);
    w.Key("pair_f1").Number(
        hera::EvaluatePairs(result->entity_of, dataset->entity_of()).f1);
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return result.ok() ? 0 : 1;
}

}  // namespace perfbench
