// Proves the direct-enqueue zero-allocation steady state: once a warm-up
// pass has grown the action, state and wait-edge pools, the stream rings and
// the engine heap, enqueueing a stencil DAG whose kernels each wait on
// several still-pending kernels of other streams, then synchronizing,
// performs no heap allocation. Pending dependencies cost one pooled wait
// edge each, never a heap-allocated waiter list.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "alloc_counter.hpp"
#include "rt/context.hpp"

namespace ms::rt {
namespace {

constexpr int kStreams = 4;
// Five tiles per row over four streams: a tile's four neighbours all sit on
// other streams, so an interior kernel has four pending cross-stream deps
// (plus its own previous step, same stream).
constexpr std::size_t kRows = 4;
constexpr std::size_t kCols = 5;
constexpr int kSteps = 6;

sim::KernelWork stencil() {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Stencil;
  w.elems = 1e4;
  w.flops = 1e5;
  return w;
}

/// One Hotspot-shaped pass: every step launches one kernel per tile that
/// waits on the tile and its four neighbours from the previous step. The
/// caller owns (and has reserved) every vector.
void stencil_pass(Context& ctx, std::vector<Event>& prev, std::vector<Event>& cur,
                  std::vector<Event>& deps) {
  for (int step = 0; step < kSteps; ++step) {
    for (std::size_t t = 0; t < kRows * kCols; ++t) {
      const std::size_t r = t / kCols;
      const std::size_t c = t % kCols;
      deps.clear();
      if (step > 0) {
        deps.push_back(prev[t]);
        if (r > 0) deps.push_back(prev[t - kCols]);
        if (r + 1 < kRows) deps.push_back(prev[t + kCols]);
        if (c > 0) deps.push_back(prev[t - 1]);
        if (c + 1 < kCols) deps.push_back(prev[t + 1]);
      }
      cur[t] = ctx.stream(static_cast<int>(t) % kStreams)
                   .enqueue_kernel(KernelLaunch{"stencil", stencil()}, deps);
    }
    prev.swap(cur);
  }
  ctx.synchronize();
}

TEST(DirectEnqueueAlloc, SteadyStateStencilDagAllocatesNothing) {
  Context ctx(sim::SimConfig::phi_31sp());
  ctx.setup(kStreams);
  ctx.set_tracing(false);
  std::vector<Event> prev(kRows * kCols);
  std::vector<Event> cur(kRows * kCols);
  std::vector<Event> deps;
  deps.reserve(5);

  for (int i = 0; i < 3; ++i) stencil_pass(ctx, prev, cur, deps);

  const std::size_t before = test::allocations();
  for (int i = 0; i < 20; ++i) stencil_pass(ctx, prev, cur, deps);
  const std::size_t after = test::allocations();
  EXPECT_EQ(after - before, 0u) << "steady-state direct enqueue must not allocate";
}

}  // namespace
}  // namespace ms::rt
