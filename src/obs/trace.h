// Phase/span tracing and structured run events.
//
// A Tracer records RAII spans (nested; per-name aggregates plus a
// bounded list of individual span records) and structured events
// (governance decisions: sheds, deferrals, truncation, failpoint
// hits). Spans must nest LIFO on one thread — the resolution loop is
// single-threaded — while events may arrive from any thread and are
// mutex-guarded. All times are milliseconds since the tracer was
// created, read from the same steady clock as common/timer.h.
//
// RunTrace bundles the tracer with a MetricsRegistry and per-iteration
// counter rows; the engine carries one per run when
// HeraOptions::collect_report is set, and obs/report.h turns it into
// the exported RunReport.

#ifndef HERA_OBS_TRACE_H_
#define HERA_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/timeline.h"

namespace hera {
namespace obs {

/// One structured event: what happened, when, in which iteration.
struct TraceEvent {
  double t_ms = 0.0;       ///< Milliseconds since trace start.
  int64_t iteration = -1;  ///< Compare-and-merge pass, -1 outside one.
  std::string kind;        ///< Stable identifier ("shed.index_pairs"...).
  std::string detail;      ///< Free-form context ("deadline", site name).
  uint64_t value = 0;      ///< Magnitude (entries shed, groups deferred).
};

/// Aggregate of every finished span sharing one name.
struct PhaseStat {
  uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

/// One finished span (kept for the first kMaxSpanRecords closes; the
/// per-name aggregates keep counting beyond that).
struct SpanRecord {
  std::string name;
  int depth = 0;           ///< Nesting depth at open (0 = top level).
  double start_ms = 0.0;   ///< Open time since trace start.
  double dur_ms = 0.0;
  int64_t iteration = -1;  ///< Iteration scope at close.
};

/// One chunk executed on a pool worker (the join's sweep, tokenize
/// and probe phases). Recorded post-hoc by the controller thread from
/// ParallelRunStats::chunk_spans, so worker code never touches the
/// tracer. Times are on the tracer clock, same as SpanRecord.
struct WorkerSpanRecord {
  std::string name;        ///< Phase ("join.tokenize", "join.probe").
  size_t worker = 0;       ///< Pool worker index (0-based).
  uint64_t chunk = 0;      ///< Chunk index within the parallel call.
  double start_ms = 0.0;   ///< Start time since trace start.
  double dur_ms = 0.0;
  int64_t iteration = -1;  ///< Iteration scope when recorded.
};

/// \brief Span + event recorder for one run.
class Tracer {
 public:
  static constexpr size_t kMaxSpanRecords = 2048;
  static constexpr size_t kMaxEvents = 4096;

  Tracer() = default;

  /// \brief RAII handle; closes its span on destruction (or End()).
  /// A default-constructed or moved-from Span is a no-op, which lets
  /// instrumentation sites write
  ///   auto span = obs::StartSpan(trace, "index.build");
  /// with a null trace when collection is off.
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, const char* name);
    Span(Span&& o) noexcept { *this = std::move(o); }
    Span& operator=(Span&& o) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    /// Closes the span early; idempotent.
    void End();

   private:
    Tracer* tracer_ = nullptr;
    const char* name_ = nullptr;
    double start_ms_ = 0.0;
    int depth_ = 0;
  };

  Span StartSpan(const char* name) { return Span(this, name); }

  /// Records a structured event at the current time/iteration scope.
  void Event(std::string kind, std::string detail = "", uint64_t value = 0);

  /// Tags subsequent spans/events with iteration `k` (-1 clears).
  void SetIteration(int64_t k) { iteration_.store(k, std::memory_order_relaxed); }
  int64_t iteration() const { return iteration_.load(std::memory_order_relaxed); }

  double ElapsedMs() const { return clock_.ElapsedMillis(); }

  // ---- Snapshot accessors (exporters; not for use mid-span).
  std::vector<SpanRecord> spans() const;
  std::map<std::string, PhaseStat> PhaseStats() const;
  std::vector<TraceEvent> events() const;
  /// Events discarded beyond kMaxEvents (reported, never silent).
  uint64_t dropped_events() const;

 private:
  friend class Span;
  void CloseSpan(const char* name, double start_ms, int depth);

  Timer clock_;
  std::atomic<int64_t> iteration_{-1};
  std::atomic<int> open_depth_{0};

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, PhaseStat> phase_stats_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_events_ = 0;
};

/// \brief Everything one observed run collects.
class RunTrace {
 public:
  static constexpr size_t kMaxWorkerSpans = 8192;

  /// One compare-and-merge pass's counters (deltas for that pass).
  struct IterationRow {
    uint64_t iteration = 0;
    uint64_t groups = 0;     ///< Candidate groups examined.
    uint64_t pruned = 0;     ///< Discarded because Up < delta.
    uint64_t direct = 0;     ///< Resolved by Up == Low (no verification).
    uint64_t verified = 0;   ///< Sent through the verifier.
    uint64_t merges = 0;
    uint64_t deferred = 0;   ///< Pushed to a later pass by the ceiling.
    double ms = 0.0;
    double t_ms = 0.0;       ///< Stitched run time at pass end (NowMs).
  };

  explicit RunTrace(size_t timeline_capacity = 4096);
  ~RunTrace();
  RunTrace(const RunTrace&) = delete;
  RunTrace& operator=(const RunTrace&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  TimelineSeries& timeline() { return timeline_; }
  const TimelineSeries& timeline() const { return timeline_; }

  void AddIteration(const IterationRow& row);
  std::vector<IterationRow> iterations() const;

  /// Worker spans (bounded; overflow counted, never silent).
  void AddWorkerSpan(WorkerSpanRecord span);
  std::vector<WorkerSpanRecord> worker_spans() const;
  uint64_t dropped_worker_spans() const;

  /// Stitched-run clock. The base is 0 for a fresh run; a resumed run
  /// sets it to the milliseconds already spent before the checkpoint
  /// (RestoreState), so timeline samples and iteration rows from the
  /// pre-crash and resumed processes concatenate into one monotone
  /// series. Tracer spans stay process-relative by design.
  void SetTimeBaseMs(double base_ms) { time_base_ms_ = base_ms; }
  double time_base_ms() const { return time_base_ms_; }
  double NowMs() const { return time_base_ms_ + tracer_.ElapsedMs(); }

  /// Sampler interval used for this run (0 = sampler off); recorded so
  /// the report can state it.
  void SetTimelineIntervalMs(double ms) { timeline_interval_ms_ = ms; }
  double timeline_interval_ms() const { return timeline_interval_ms_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  TimelineSeries timeline_;
  double time_base_ms_ = 0.0;
  double timeline_interval_ms_ = 0.0;
  mutable std::mutex mu_;
  std::vector<IterationRow> iterations_;
  std::vector<WorkerSpanRecord> worker_spans_;
  uint64_t dropped_worker_spans_ = 0;
};

/// Null-tolerant span helper for instrumentation sites.
inline Tracer::Span StartSpan(RunTrace* trace, const char* name) {
  return trace != nullptr ? trace->tracer().StartSpan(name) : Tracer::Span();
}

}  // namespace obs
}  // namespace hera

#endif  // HERA_OBS_TRACE_H_
