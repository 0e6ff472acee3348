#include "sim/kernel_dispatch.h"

namespace hera {

namespace kernel_internal {
std::atomic<uint64_t> g_myers_calls{0};
}  // namespace kernel_internal

KernelCounterSnapshot KernelCountersNow() {
  KernelCounterSnapshot snap;
  snap.myers_calls =
      kernel_internal::g_myers_calls.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace hera
