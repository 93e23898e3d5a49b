#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "rt/action.hpp"
#include "rt/buffer.hpp"
#include "rt/event.hpp"

namespace ms::rt {

class CompiledGraph;
class Context;
struct CompileOptions;

/// A recorded schedule that can be launched repeatedly — the CUDA-Graphs
/// style answer to the host-side enqueue cost this library models (and that
/// Fig. 10 of the paper shows drowning fine-grained tilings): describe the
/// actions and their dependency edges once, then `launch()` re-issues the
/// whole bundle for the price of one launch call plus a small per-node
/// replay cost instead of a full `action_enqueue` per action.
///
/// Nodes reference streams by index and buffers by handle; dependencies are
/// node-ids of *earlier* nodes (the graph is acyclic by construction).
/// Launching validates the whole DAG against the target context before it
/// issues anything, so one graph can be replayed on any context with
/// compatible streams/buffers.
///
/// There is one replay path: `launch()` compiles the graph into a
/// rt::CompiledGraph on first use, caches it, and replays the plan. `compile()`
/// hands out such an executor directly (for launch_batch, compile-time hazard
/// or lint passes, or the GraphCache). Graphs can be hand-built through the
/// add_* calls or recorded from real enqueues with
/// Context::begin_capture()/end_capture().
class Graph {
public:
  using NodeId = std::size_t;

  /// Record a host-to-device transfer on `stream`.
  NodeId add_h2d(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                 std::vector<NodeId> deps = {});

  /// Record a device-to-host transfer on `stream`.
  NodeId add_d2h(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                 std::vector<NodeId> deps = {});

  /// Record a kernel launch on `stream`. The functor (if any) runs on every
  /// replay.
  NodeId add_kernel(int stream, KernelLaunch launch, std::vector<NodeId> deps = {});

  /// Record a zero-cost join point on `stream`.
  NodeId add_barrier(int stream, std::vector<NodeId> deps = {});

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Issue every recorded node into `ctx` (charging the replay overheads
  /// instead of per-action enqueue costs) and return an event that
  /// completes when every node has completed. Compiles on the first launch,
  /// after any add_*, and when `ctx`'s SimConfig fingerprint differs from the
  /// cached plan's; every other launch replays the cached plan without heap
  /// allocation. Throws rt::Error, having issued nothing, when the graph does
  /// not fit `ctx`.
  Event launch(Context& ctx) const;

  /// Validate and flatten the DAG against `ctx` once, returning an executor
  /// whose launches charge the same virtual costs as launch() but do no
  /// per-replay host work beyond issuing the actions themselves. See
  /// rt::CompiledGraph for the compatibility rules.
  [[nodiscard]] CompiledGraph compile(Context& ctx, const CompileOptions& opts) const;
  [[nodiscard]] CompiledGraph compile(Context& ctx) const;

private:
  friend class CompiledGraph;
  friend class Context;  // capture recording

  struct Node {
    ActionKind kind = ActionKind::Kernel;
    int stream = 0;
    BufferId buffer{};
    std::size_t offset = 0;
    std::size_t bytes = 0;
    KernelLaunch launch{};
    std::vector<NodeId> deps;
  };

  NodeId add(Node node);

  std::vector<Node> nodes_;
  /// Maintained by add(): has_dependent_[i] is true once any later node
  /// depends on i, and leaves_ holds the current dependent-free node ids —
  /// precomputed so compiling does not rediscover them.
  std::vector<bool> has_dependent_;
  std::vector<NodeId> leaves_;

  /// launch()'s compiled executor. A copy of the graph starts without one
  /// (it compiles its own on first launch), and add() drops it.
  struct Cache {
    std::unique_ptr<CompiledGraph> graph;
    Cache() noexcept;
    Cache(const Cache&) noexcept;
    Cache(Cache&&) noexcept;
    Cache& operator=(const Cache&) noexcept;
    Cache& operator=(Cache&&) noexcept;
    ~Cache();
  };
  mutable Cache compiled_;
};

}  // namespace ms::rt
