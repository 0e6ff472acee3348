#include "core/hera.h"

#include "core/engine.h"
#include "persist/checkpoint.h"

namespace hera {

namespace {

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

/// Run and RunWithPairs: a fresh batch run over `dataset` that indexes
/// `pairs` when given and runs the join otherwise.
StatusOr<HeraResult> RunBatch(const HeraOptions& options,
                              const Dataset& dataset,
                              const std::vector<ValuePair>* pairs) {
  HERA_RETURN_NOT_OK(dataset.Validate());
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options));

  ResolutionEngine engine(options, std::move(simv));
  std::unique_ptr<persist::CheckpointManager> ckpt;
  if (!options.checkpoint_dir.empty()) {
    HERA_ASSIGN_OR_RETURN(
        ckpt, persist::CheckpointManager::Open(
                  BatchCheckpointConfig(options, dataset), engine.trace()));
    engine.SetCheckpointManager(ckpt.get());
  }
  engine.AddRecords(dataset.records());
  engine.ArmGuard();
  if (pairs != nullptr) {
    HERA_RETURN_NOT_OK(engine.IndexPrecomputed(*pairs));
  } else {
    HERA_RETURN_NOT_OK(engine.IndexNewRecords().status());
  }
  HERA_RETURN_NOT_OK(engine.IterateToFixpoint());

  HeraResult result;
  FinishResult(&engine, &result);
  return result;
}

}  // namespace

StatusOr<HeraResult> Hera::Run(const Dataset& dataset) const {
  return RunBatch(options_, dataset, nullptr);
}

StatusOr<HeraResult> Hera::RunWithPairs(
    const Dataset& dataset, const std::vector<ValuePair>& pairs) const {
  return RunBatch(options_, dataset, &pairs);
}

StatusOr<HeraResult> Hera::Resume(const Dataset& dataset) const {
  HERA_RETURN_NOT_OK(dataset.Validate());
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options_));
  if (options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "Resume requires options.checkpoint_dir to be set");
  }
  ResolutionEngine engine(options_, std::move(simv));
  // NotFound reaches the caller untouched so it can fall back to Run.
  HERA_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::CheckpointManager> ckpt,
      RecoverCheckpoint(BatchCheckpointConfig(options_, dataset), &engine,
                        /*arm_guard=*/true));
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
    AppendRecordValues(SuperRecord::FromRecord(r), &values);
  }
  JoinSetup join = MakeJoinSetup(options, *simv);
  std::vector<ValuePair> pairs;
  HERA_RETURN_NOT_OK(
      join.joiner->Join(values, *simv, options.xi, RunGuard(), &pairs));
  return pairs;
}

}  // namespace hera
