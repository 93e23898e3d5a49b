#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/sim_time.hpp"

namespace ms::rt {

class Stream;

namespace detail {

struct Action;

/// One pending cross-stream dependency: `action` (queued on `stream`) waits
/// for the completion of the state whose list holds this edge. The only kind
/// of waiter the runtime has, so it is plain data instead of a closure. Edges
/// live in the dependent stream's Context edge pool and are recycled there as
/// soon as they fire.
struct WaitEdge {
  WaitEdge* next;
  Stream* stream;
  Action* action;
};

/// Shared completion state of one enqueued action. Instances live in the
/// owning Context's state node pool (control block and all), so
/// steady-state enqueue/complete cycles allocate nothing. Pending dependents
/// hang off it as an intrusive FIFO of pooled WaitEdges, fired (in
/// registration order) by the completing stream.
struct ActionState {
  bool done = false;
  sim::SimTime end = sim::SimTime::zero();
  /// Node id assigned by the hazard analyzer's recorder (0 = not recorded).
  /// Lets a dependency Event be mapped back to the recorded action so the
  /// analyzer sees the same edge the scheduler wires.
  std::uint64_t analyze_id = 0;
  /// While a Context is capturing into a Graph, enqueues return phantom
  /// events whose state carries `1 + node id` here (0 = not a capture
  /// phantom). Such events never complete; they only name graph nodes so
  /// later captured enqueues can depend on them.
  std::uint64_t capture_node = 0;
  /// The Graph a capture phantom belongs to. Node ids are graph-local, so a
  /// phantom handed to a *different* capture must be rejected rather than
  /// silently aliasing that graph's node of the same index.
  const void* capture_owner = nullptr;
  /// Pending dependents, oldest first. Never owned: the edges belong to
  /// their Context's pool, and a state that never completes (its Context
  /// was dropped mid-flight) simply never walks them.
  WaitEdge* waits_head = nullptr;
  WaitEdge* waits_tail = nullptr;

  void add_wait(WaitEdge* e) noexcept {
    e->next = nullptr;
    if (waits_tail != nullptr) {
      waits_tail->next = e;
    } else {
      waits_head = e;
    }
    waits_tail = e;
  }

  /// Mark complete and detach the wait list; the caller fires and recycles
  /// it. Detaching first matters: once `done` is set, later enqueues read
  /// the end time instead of appending to this list.
  [[nodiscard]] WaitEdge* complete(sim::SimTime t) noexcept {
    done = true;
    end = t;
    WaitEdge* head = waits_head;
    waits_head = waits_tail = nullptr;
    return head;
  }
};

}  // namespace detail

/// Completion handle for an enqueued action, in the spirit of CUDA events /
/// hStreams completion events. Default-constructed events are *null* and
/// count as already complete at time zero — convenient as "no dependency".
class Event {
public:
  Event() = default;

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(state_); }
  [[nodiscard]] bool done() const noexcept { return !state_ || state_->done; }

  /// Virtual completion time; only meaningful once done().
  [[nodiscard]] sim::SimTime time() const noexcept {
    return state_ ? state_->end : sim::SimTime::zero();
  }

private:
  friend class Stream;
  friend class Context;
  friend class CompiledGraph;
  explicit Event(std::shared_ptr<detail::ActionState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::ActionState> state_;
};

}  // namespace ms::rt
