// Runtime dispatch for the SIMD kernel tier.
//
// The set-intersection kernel (sim/kernel.cc) comes in several
// implementations: scalar (always available), SSE4, and AVX2. Which one
// runs is a pure speed knob — every tier computes the same integers and
// the same doubles, so labels and merge_sequence are byte-identical
// across tiers (tests/kernel_test.cc sweeps them).
//
// Tier selection, in precedence order:
//   1. HeraOptions::kernel_dispatch, when not kAuto (the engine applies
//      it via SetActiveKernelDispatch at construction);
//   2. the HERA_KERNEL_DISPATCH environment variable ("avx2", "sse4",
//      "scalar", "auto") — this is how CI forces the scalar fallback
//      for a whole ctest run without touching any call site;
//   3. CPUID: the best tier the running CPU supports.
// A requested tier the CPU cannot run clamps down (avx2 -> sse4 ->
// scalar), never errors: the knob can be baked into configs that run on
// heterogeneous fleets.
//
// The active tier is process-global (one atomic, relaxed ordering) by
// design: the kernels are called from deep inside hot loops that cannot
// afford to thread an options struct through, and the tier never
// changes results, only speed. It is lazily initialized on first use so
// plain kernel calls in tests and benches honor the environment
// variable without any engine in the picture.
//
// The same header owns the process-global kernel counters
// (simd_intersections, myers_calls). They use relaxed atomics on the
// hot path; the engine publishes per-run deltas into the run report as
// kernel.* metrics (docs/observability.md).

#ifndef HERA_SIM_KERNEL_DISPATCH_H_
#define HERA_SIM_KERNEL_DISPATCH_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace hera {

/// Kernel implementation tiers, best first. kAuto resolves to the best
/// supported tier (or the HERA_KERNEL_DISPATCH override) and is never
/// the *active* tier.
enum class KernelDispatch {
  kAuto,
  kAvx2,
  kSse4,
  kScalar,
};

/// True when the running CPU can execute the tier's instructions
/// (kScalar and kAuto are always true).
bool CpuSupportsKernelDispatch(KernelDispatch tier);

/// Best tier the running CPU supports (never kAuto).
KernelDispatch BestSupportedKernelDispatch();

/// Resolves a requested tier to a runnable one: kAuto consults
/// HERA_KERNEL_DISPATCH then CPUID; a named tier clamps down to the
/// best supported tier at or below it. Never returns kAuto.
KernelDispatch ResolveKernelDispatch(KernelDispatch requested);

/// The process-global active tier, lazily resolved from kAuto on first
/// read (so the environment variable works without an engine).
KernelDispatch ActiveKernelDispatch();

/// Sets the active tier (resolving kAuto / clamping unsupported tiers
/// first). The engine calls this with HeraOptions::kernel_dispatch.
void SetActiveKernelDispatch(KernelDispatch tier);

/// "auto" | "avx2" | "sse4" | "scalar".
const char* KernelDispatchToString(KernelDispatch tier);

/// Inverse of KernelDispatchToString; false on unknown names.
bool KernelDispatchFromString(const std::string& name, KernelDispatch* tier);

/// Numeric tier id for the kernel.dispatch_tier gauge: 0 = scalar,
/// 1 = sse4, 2 = avx2.
int KernelDispatchGaugeValue(KernelDispatch tier);

namespace kernel_internal {
extern std::atomic<uint64_t> g_simd_intersections;
extern std::atomic<uint64_t> g_myers_calls;
}  // namespace kernel_internal

/// One SIMD (sse4/avx2) intersection ran instead of the scalar merge.
inline void CountSimdIntersection() {
  kernel_internal::g_simd_intersections.fetch_add(1, std::memory_order_relaxed);
}

/// One Myers bit-parallel edit-distance call ran.
inline void CountMyersCall() {
  kernel_internal::g_myers_calls.fetch_add(1, std::memory_order_relaxed);
}

/// Snapshot of the process-global kernel counters. Monotone; consumers
/// (the engine's metric sync) publish deltas against a baseline taken
/// at engine construction.
struct KernelCounterSnapshot {
  uint64_t simd_intersections = 0;
  uint64_t myers_calls = 0;
};

KernelCounterSnapshot KernelCountersNow();

}  // namespace hera

#endif  // HERA_SIM_KERNEL_DISPATCH_H_
