#include "core/hera.h"

#include "core/engine.h"
#include "persist/checkpoint.h"
#include "sim/metrics.h"

namespace hera {

namespace {

/// Validates options and resolves the configured metric; shared with
/// IncrementalHera.
StatusOr<ValueSimilarityPtr> ResolveMetric(const HeraOptions& options) {
  HERA_RETURN_NOT_OK(ValidateOptions(options));
  ValueSimilarityPtr simv = options.similarity;
  if (!simv) {
    simv = MakeSimilarity(options.metric);
    if (!simv) {
      return Status::InvalidArgument("unknown similarity metric: " +
                                     options.metric);
    }
  }
  return simv;
}

/// Fills `result` from the finished engine (labels, stats, super
/// records, and — when collection was on — the run report).
void FinishResult(ResolutionEngine* engine, HeraResult* result) {
  result->entity_of = engine->Labels();
  result->stats = engine->stats();
  // Stop the timeline sampler (taking one final edge sample) before
  // snapshotting the trace, so the report's timeline covers the whole
  // run and no sampler thread races the report build.
  engine->StopTimelineSampler();
  if (engine->trace() != nullptr) {
    result->report =
        obs::BuildRunReport(*engine->trace(), engine->stats(),
                            RunOutcomeToString(engine->stats().outcome));
  }
  result->super_records = engine->TakeSuperRecords();
}

/// Checkpoint identity for a batch run over `dataset`.
persist::CheckpointManager::Config BatchCheckpointConfig(
    const HeraOptions& options, const Dataset& dataset) {
  persist::CheckpointManager::Config config;
  config.dir = options.checkpoint_dir;
  config.checkpoint_every = options.checkpoint_every;
  config.kind = persist::RunKind::kBatch;
  config.options_fp = persist::FingerprintOptions(options);
  config.corpus_fp = persist::FingerprintDataset(dataset);
  return config;
}

}  // namespace

StatusOr<HeraResult> Hera::Run(const Dataset& dataset) const {
  HERA_RETURN_NOT_OK(dataset.Validate());
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options_));

  ResolutionEngine engine(options_, std::move(simv));
  std::unique_ptr<persist::CheckpointManager> ckpt;
  if (!options_.checkpoint_dir.empty()) {
    HERA_ASSIGN_OR_RETURN(
        ckpt, persist::CheckpointManager::Open(
                  BatchCheckpointConfig(options_, dataset), engine.trace()));
    engine.SetCheckpointManager(ckpt.get());
  }
  engine.AddRecords(dataset.records());
  engine.ArmGuard();
  HERA_RETURN_NOT_OK(engine.IndexNewRecords().status());
  HERA_RETURN_NOT_OK(engine.IterateToFixpoint());

  HeraResult result;
  FinishResult(&engine, &result);
  return result;
}

StatusOr<HeraResult> Hera::RunWithPairs(
    const Dataset& dataset, const std::vector<ValuePair>& pairs) const {
  HERA_RETURN_NOT_OK(dataset.Validate());
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options_));

  ResolutionEngine engine(options_, std::move(simv));
  std::unique_ptr<persist::CheckpointManager> ckpt;
  if (!options_.checkpoint_dir.empty()) {
    HERA_ASSIGN_OR_RETURN(
        ckpt, persist::CheckpointManager::Open(
                  BatchCheckpointConfig(options_, dataset), engine.trace()));
    engine.SetCheckpointManager(ckpt.get());
  }
  engine.AddRecords(dataset.records());
  engine.ArmGuard();
  HERA_RETURN_NOT_OK(engine.IndexPrecomputed(pairs));
  HERA_RETURN_NOT_OK(engine.IterateToFixpoint());

  HeraResult result;
  FinishResult(&engine, &result);
  return result;
}

StatusOr<HeraResult> Hera::Resume(const Dataset& dataset) const {
  HERA_RETURN_NOT_OK(dataset.Validate());
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options_));
  if (options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "Resume requires options.checkpoint_dir to be set");
  }
  const persist::CheckpointManager::Config config =
      BatchCheckpointConfig(options_, dataset);

  ResolutionEngine engine(options_, std::move(simv));
  // Recover before opening for write: NotFound must reach the caller
  // untouched so it can fall back to a fresh Run.
  HERA_ASSIGN_OR_RETURN(
      persist::CheckpointManager::Recovered recovered,
      persist::CheckpointManager::Recover(config, engine.trace()));
  engine.RestoreState(recovered.state);
  engine.ArmGuard();
  for (const persist::WalEntry& entry : recovered.wal) {
    HERA_RETURN_NOT_OK(engine.ReplayWalEntry(entry));
  }

  HERA_ASSIGN_OR_RETURN(std::unique_ptr<persist::CheckpointManager> ckpt,
                        persist::CheckpointManager::Open(config, engine.trace()));
  engine.SetCheckpointManager(ckpt.get());
  // Re-snapshot the recovered state as a fresh epoch: recovery never
  // appends after a (possibly torn) WAL tail.
  HERA_RETURN_NOT_OK(ckpt->WriteSnapshot(engine.ExportState()));
  HERA_RETURN_NOT_OK(engine.IterateToFixpoint());

  HeraResult result;
  FinishResult(&engine, &result);
  return result;
}

StatusOr<std::vector<ValuePair>> ComputeSimilarValuePairs(
    const Dataset& dataset, const HeraOptions& options) {
  HERA_RETURN_NOT_OK(dataset.Validate());
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options));
  std::vector<LabeledValue> values;
  for (const Record& r : dataset.records()) {
    SuperRecord sr = SuperRecord::FromRecord(r);
    for (uint32_t f = 0; f < sr.num_fields(); ++f) {
      for (uint32_t v = 0; v < sr.field(f).size(); ++v) {
        values.push_back(
            {ValueLabel{sr.rid(), f, v}, sr.field(f).value(v).value});
      }
    }
  }
  JoinSetup join = MakeJoinSetup(options, *simv);
  std::vector<ValuePair> pairs;
  HERA_RETURN_NOT_OK(
      join.joiner->Join(values, *simv, options.xi, RunGuard(), &pairs));
  return pairs;
}

}  // namespace hera
