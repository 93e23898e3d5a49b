// Compile-once / replay-millions: record a pipeline schedule as a graph,
// compile it, and replay it two ways — separate launch() calls and one
// batched launch_batch() — timing the *host wall clock* each path costs per
// replay. Virtual times are bit-identical across both (asserted at the end);
// batching only changes what the issuing thread pays, which is the point of
// CUDA-Graphs-style batched launch.

#include <chrono>
#include <cstdio>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/graph.hpp"
#include "rt/tile_plan.hpp"

int main() {
  using namespace ms;

  constexpr std::size_t kBytes = 8u << 20;
  constexpr int kTiles = 256;
  constexpr int kReplays = 64;

  const auto cfg = sim::SimConfig::phi_31sp();
  auto make_ctx = [&](rt::Context& ctx, rt::Graph& graph) {
    ctx.set_tracing(false);
    ctx.setup(4);
    const auto buf = ctx.create_virtual_buffer(kBytes);
    const auto ranges = rt::split_even(kBytes, kTiles);
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      const int s = static_cast<int>(t) % ctx.stream_count();
      sim::KernelWork w;
      w.kind = sim::KernelKind::Streaming;
      w.elems = 1e8 / kTiles;
      const auto up = graph.add_h2d(s, buf, ranges[t].begin, ranges[t].size());
      const auto k = graph.add_kernel(s, {"task", w, {}}, {up});
      graph.add_d2h(s, buf, ranges[t].begin, ranges[t].size(), {k});
    }
    ctx.synchronize();
  };

  auto wall_us = [](auto&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  // 1. Compiled: validate + flatten once, then replay the plan. Warm with a
  // full round so both paths retire 2 * kReplays replays (the bit-identity
  // check at the end compares the two virtual clocks).
  rt::Context comp_ctx(cfg);
  rt::Graph comp_graph;
  make_ctx(comp_ctx, comp_graph);
  rt::CompiledGraph compiled = comp_graph.compile(comp_ctx);
  for (int i = 0; i < kReplays; ++i) compiled.launch(comp_ctx);  // warm the run pool
  comp_ctx.synchronize();
  const double comp_us = wall_us([&] {
    for (int i = 0; i < kReplays; ++i) compiled.launch(comp_ctx);
  });
  comp_ctx.synchronize();

  // 2. Batched: all replays issued in one call through the batch arena.
  rt::Context batch_ctx(cfg);
  rt::Graph batch_graph;
  make_ctx(batch_ctx, batch_graph);
  rt::CompiledGraph batched = batch_graph.compile(batch_ctx);
  batched.launch_batch(batch_ctx, kReplays);  // warm: builds the arena
  batch_ctx.synchronize();
  const auto t_before = batch_ctx.host_time();
  const double batch_us = wall_us([&] { batched.launch_batch(batch_ctx, kReplays); });
  batch_ctx.synchronize();

  std::printf("%d replays of a %zu-node schedule, host wall clock per replay:\n", kReplays,
              batched.node_count() + 1);
  std::printf("  compiled launch()      %8.2f us\n", comp_us / kReplays);
  std::printf("  launch_batch(%d)       %8.2f us   (%.1fx)\n", kReplays, batch_us / kReplays,
              comp_us / batch_us);
  std::printf("virtual time of the timed batch: %.3f ms\n",
              (batch_ctx.host_time() - t_before).millis());

  // Batching never changes the modelled cost: both contexts ran
  // 2 * kReplays replays, so their virtual clocks must agree to the last bit.
  if (comp_ctx.host_time().micros() != batch_ctx.host_time().micros()) {
    std::printf("ERROR: virtual times diverged across replay paths\n");
    return 1;
  }
  std::printf("virtual times bit-identical across both paths: OK\n");
  return 0;
}
