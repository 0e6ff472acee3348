// Process-global kernel counters, plus an ignored stand-in for the
// removed kernel dispatch knob.
//
// The set-intersection kernels (sim/kernel.h) have one scalar
// implementation; the shape of the input alone picks bitmap, gallop or
// merge. KernelDispatch, its functions below,
// KernelCounterSnapshot::simd_intersections and
// HeraOptions::kernel_dispatch remain only for perfbench's traced run,
// which still names them, until the benchmark change that deletes the
// frozen surfaces (ROADMAP item 6). They select nothing: the single
// value is kScalar, the gauge reads 0 and the SIMD count stays zero.
//
// The myers_calls counter is real. It uses a relaxed atomic on the hot
// path; the engine publishes per-run deltas into the run report as
// kernel.myers_calls (docs/observability.md).

#ifndef HERA_SIM_KERNEL_DISPATCH_H_
#define HERA_SIM_KERNEL_DISPATCH_H_

#include <atomic>
#include <cstdint>

namespace hera {

enum class KernelDispatch { kScalar };

inline KernelDispatch ResolveKernelDispatch(KernelDispatch /*requested*/) {
  return KernelDispatch::kScalar;
}

inline KernelDispatch ActiveKernelDispatch() { return KernelDispatch::kScalar; }

inline const char* KernelDispatchToString(KernelDispatch /*tier*/) {
  return "scalar";
}

inline int KernelDispatchGaugeValue(KernelDispatch /*tier*/) { return 0; }

namespace kernel_internal {
extern std::atomic<uint64_t> g_myers_calls;
}  // namespace kernel_internal

/// One Myers bit-parallel edit-distance call ran.
inline void CountMyersCall() {
  kernel_internal::g_myers_calls.fetch_add(1, std::memory_order_relaxed);
}

/// Snapshot of the process-global kernel counters. Monotone; consumers
/// (the engine's metric sync) publish deltas against a baseline taken
/// at engine construction.
struct KernelCounterSnapshot {
  uint64_t simd_intersections = 0;  // Always zero (see above).
  uint64_t myers_calls = 0;
};

KernelCounterSnapshot KernelCountersNow();

}  // namespace hera

#endif  // HERA_SIM_KERNEL_DISPATCH_H_
