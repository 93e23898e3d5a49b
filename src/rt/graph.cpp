#include "rt/graph.hpp"

#include <memory>

#include "rt/compiled_graph.hpp"
#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "sim/sim_config.hpp"

namespace ms::rt {

Graph::NodeId Graph::add(Node node) {
  for (const NodeId d : node.deps) {
    if (d >= nodes_.size()) {
      throw Error("Graph: dependency on a node that is not recorded yet");
    }
  }
  if (node.stream < 0) {
    throw Error("Graph: negative stream index");
  }
  const NodeId id = nodes_.size();
  // Keep the dependent/leaf bookkeeping incremental: deps can only point at
  // earlier nodes, so a node leaves the leaf set exactly once, when the
  // first later node names it.
  for (const NodeId d : node.deps) {
    if (!has_dependent_[d]) {
      has_dependent_[d] = true;
      for (std::size_t i = 0; i < leaves_.size(); ++i) {
        if (leaves_[i] == d) {
          leaves_[i] = leaves_.back();
          leaves_.pop_back();
          break;
        }
      }
    }
  }
  nodes_.push_back(std::move(node));
  compiled_.graph.reset();
  has_dependent_.push_back(false);
  leaves_.push_back(id);
  return id;
}

Graph::NodeId Graph::add_h2d(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                             std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::H2D;
  n.stream = stream;
  n.buffer = buf;
  n.offset = offset;
  n.bytes = bytes;
  n.deps = std::move(deps);
  return add(std::move(n));
}

Graph::NodeId Graph::add_d2h(int stream, BufferId buf, std::size_t offset, std::size_t bytes,
                             std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::D2H;
  n.stream = stream;
  n.buffer = buf;
  n.offset = offset;
  n.bytes = bytes;
  n.deps = std::move(deps);
  return add(std::move(n));
}

Graph::NodeId Graph::add_kernel(int stream, KernelLaunch launch, std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::Kernel;
  n.stream = stream;
  n.launch = std::move(launch);
  n.deps = std::move(deps);
  return add(std::move(n));
}

Graph::NodeId Graph::add_barrier(int stream, std::vector<NodeId> deps) {
  Node n;
  n.kind = ActionKind::Barrier;
  n.stream = stream;
  n.deps = std::move(deps);
  return add(std::move(n));
}

Event Graph::launch(Context& ctx) const {
  if (nodes_.empty()) {
    throw Error("Graph::launch: empty graph");
  }
  std::unique_ptr<CompiledGraph>& cg = compiled_.graph;
  if (!cg || cg->config_fingerprint() != sim::fingerprint(ctx.platform().config())) {
    cg = std::make_unique<CompiledGraph>(compile(ctx));
  }
  return cg->launch(ctx);
}

CompiledGraph Graph::compile(Context& ctx, const CompileOptions& opts) const {
  return CompiledGraph(*this, ctx, opts);
}

CompiledGraph Graph::compile(Context& ctx) const { return compile(ctx, CompileOptions{}); }

Graph::Cache::Cache() noexcept = default;
Graph::Cache::Cache(const Cache&) noexcept {}
Graph::Cache::Cache(Cache&&) noexcept = default;
Graph::Cache& Graph::Cache::operator=(const Cache&) noexcept {
  graph.reset();
  return *this;
}
Graph::Cache& Graph::Cache::operator=(Cache&&) noexcept = default;
Graph::Cache::~Cache() = default;

}  // namespace ms::rt
