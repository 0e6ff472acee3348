#include "core/incremental.h"

namespace hera {

namespace {

/// Checkpoint identity for an incremental run. The corpus fingerprint
/// covers only the schema catalog: the record stream is open-ended, so
/// the records themselves are part of the checkpointed state, not of
/// its identity.
persist::CheckpointManager::Config IncrementalCheckpointConfig(
    const HeraOptions& options, const SchemaCatalog& schemas) {
  persist::CheckpointManager::Config config;
  config.dir = options.checkpoint_dir;
  config.checkpoint_every = options.checkpoint_every;
  config.kind = persist::RunKind::kIncremental;
  config.options_fp = persist::FingerprintOptions(options);
  config.corpus_fp = persist::FingerprintSchemas(schemas);
  return config;
}

}  // namespace

IncrementalHera::IncrementalHera(const HeraOptions& options,
                                 SchemaCatalog schemas, ValueSimilarityPtr simv)
    : options_(options),
      schemas_(std::move(schemas)),
      engine_(std::make_unique<ResolutionEngine>(options, std::move(simv))) {}

StatusOr<std::unique_ptr<IncrementalHera>> IncrementalHera::Create(
    const HeraOptions& options, SchemaCatalog schemas) {
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options));
  std::unique_ptr<IncrementalHera> inc(
      new IncrementalHera(options, std::move(schemas), std::move(simv)));
  if (!options.checkpoint_dir.empty()) {
    HERA_ASSIGN_OR_RETURN(
        inc->ckpt_, persist::CheckpointManager::Open(
                        IncrementalCheckpointConfig(options, inc->schemas_),
                        inc->engine_->trace()));
    inc->engine_->SetCheckpointManager(inc->ckpt_.get());
  }
  return inc;
}

StatusOr<std::unique_ptr<IncrementalHera>> IncrementalHera::Restore(
    const HeraOptions& options, SchemaCatalog schemas) {
  HERA_ASSIGN_OR_RETURN(ValueSimilarityPtr simv, ResolveMetric(options));
  if (options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "Restore requires options.checkpoint_dir to be set");
  }
  std::unique_ptr<IncrementalHera> inc(
      new IncrementalHera(options, std::move(schemas), std::move(simv)));
  HERA_ASSIGN_OR_RETURN(
      inc->ckpt_,
      RecoverCheckpoint(IncrementalCheckpointConfig(options, inc->schemas_),
                        inc->engine_.get(), /*arm_guard=*/false));
  inc->next_id_ = static_cast<uint32_t>(inc->engine_->NumRecords());
  inc->restored_ = true;
  return inc;
}

StatusOr<uint32_t> IncrementalHera::AddRecord(uint32_t schema_id,
                                              std::vector<Value> values) {
  if (schema_id >= schemas_.size()) {
    return Status::InvalidArgument("unknown schema id " +
                                   std::to_string(schema_id));
  }
  if (values.size() != schemas_.Get(schema_id).size()) {
    return Status::InvalidArgument(
        "record arity " + std::to_string(values.size()) +
        " does not match schema arity " +
        std::to_string(schemas_.Get(schema_id).size()));
  }
  uint32_t id = next_id_++;
  pending_.emplace_back(id, schema_id, std::move(values));
  return id;
}

StatusOr<size_t> IncrementalHera::Resolve() {
  // A freshly restored engine may hold a mid-fixpoint loop that must
  // continue even with nothing new pending.
  const bool continue_restored = restored_;
  restored_ = false;
  if (pending_.empty() && !resume_needed_ && !continue_restored) {
    return size_t{0};
  }
  size_t processed = pending_.size();
  const bool had_pending = !pending_.empty();
  if (had_pending) {
    engine_->AddRecords(pending_);
    pending_.clear();
  }
  obs::RunTrace* trace = engine_->trace();
  auto round_span = obs::StartSpan(trace, "incremental.round");
  if (trace != nullptr) {
    trace->metrics().GetCounter("incremental.rounds")->Inc();
    trace->metrics().GetCounter("incremental.records")->Inc(processed);
    trace->tracer().Event("incremental.round", "", processed);
  }
  // Everything below may fail via fault injection; resume_needed_ makes
  // the next Resolve retry from the engine's (consistent) state even
  // with nothing new pending.
  resume_needed_ = true;
  engine_->ArmGuard();
  // A pure continuation of a restored round skips re-indexing: the
  // records were all indexed before the crash, and IndexNewRecords
  // would discard the restored mid-fixpoint loop state. New records
  // force a normal (re-index + full rescan) round, which subsumes the
  // continuation.
  if (had_pending || !continue_restored) {
    HERA_RETURN_NOT_OK(engine_->IndexNewRecords().status());
  }
  HERA_RETURN_NOT_OK(engine_->IterateToFixpoint());
  resume_needed_ = false;
  return processed;
}

obs::RunReport IncrementalHera::Report() const {
  const obs::RunTrace* trace = engine_->trace();
  if (trace == nullptr) return obs::RunReport{};
  return obs::BuildRunReport(*trace, engine_->stats(),
                             RunOutcomeToString(engine_->stats().outcome));
}

std::vector<uint32_t> IncrementalHera::Labels() {
  std::vector<uint32_t> labels = engine_->Labels();
  // Pending records are singletons under their future ids.
  for (const Record& r : pending_) {
    if (r.id() >= labels.size()) labels.resize(r.id() + 1);
    labels[r.id()] = r.id();
  }
  return labels;
}

}  // namespace hera
