#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "sim/chunk_depot.hpp"
#include "telemetry/metrics.hpp"

namespace ms::rt::detail {

/// Process-wide count of pool chunk growths (one heap/depot acquisition per
/// chunk). Inline so every NodePool instantiation shares the same counter.
inline telemetry::Counter& pool_chunks_grown() {
  static telemetry::Counter& c = telemetry::registry().counter(
      "ms_rt_pool_chunks_grown_total", "Chunks acquired by node pools (256 nodes each)");
  return c;
}

/// Fixed-size node pool: one chunk allocation buys kChunkNodes nodes, and
/// freed nodes recycle through an *intrusive* free list threaded through the
/// free nodes' own bytes — the pool keeps no side table at all, so an
/// enqueue burst (thousands of in-flight actions before the first
/// completion) costs one allocation per chunk and zero bookkeeping memory.
/// Chunk storage itself comes from the thread's ChunkDepot, so a
/// create-run-destroy context loop reuses the same committed pages instead
/// of faulting fresh ones in every lifetime.
///
/// The store is held by `shared_ptr` when nodes can outlive their owner
/// (action states referenced by user-retained Events keep the store alive
/// through the allocator copy inside their control block). Not thread-safe:
/// nodes must be acquired and released on the thread that owns the store,
/// which is already the Context-wide contract.
template <std::size_t NodeBytes>
class NodePool {
  static_assert(NodeBytes >= sizeof(void*), "node must hold a free-list link");
  static_assert(NodeBytes % alignof(std::max_align_t) == 0,
                "node size must preserve max alignment");

public:
  static constexpr std::size_t kNodeBytes = NodeBytes;
  static constexpr std::size_t kChunkNodes = 256;
  static constexpr std::size_t kChunkBytes = kNodeBytes * kChunkNodes;

  struct Store {
    std::vector<std::unique_ptr<std::byte[]>> chunks;
    void* free_head = nullptr;  ///< intrusive list through free nodes

    Store() = default;
    Store(const Store&) = delete;
    Store& operator=(const Store&) = delete;
    ~Store() {
      for (auto& c : chunks) {
        sim::detail::ChunkDepot::release(std::move(c), kChunkBytes);
      }
    }
  };

  [[nodiscard]] static std::shared_ptr<Store> make_store() { return std::make_shared<Store>(); }

  /// Pop a node (growing by one chunk when the free list is empty).
  [[nodiscard]] static void* allocate(Store& st) {
    if (st.free_head == nullptr) grow(st);
    void* node = st.free_head;
    st.free_head = *static_cast<void**>(node);
    return node;
  }

  /// Push a node back on the free list. The node's bytes are dead storage
  /// from this point (the link overwrites them).
  static void deallocate(Store& st, void* node) noexcept {
    *static_cast<void**>(node) = st.free_head;
    st.free_head = node;
  }

private:
  static void grow(Store& st) {
    pool_chunks_grown().add(1);
    auto chunk = sim::detail::ChunkDepot::acquire(kChunkBytes);
    std::byte* base = chunk.get();
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      deallocate(st, base + i * kNodeBytes);
    }
    st.chunks.push_back(std::move(chunk));
  }
};

/// Node size that holds one T and keeps consecutive nodes max-aligned.
template <typename T>
inline constexpr std::size_t kNodeBytesFor =
    (sizeof(T) + alignof(std::max_align_t) - 1) / alignof(std::max_align_t) *
    alignof(std::max_align_t);

/// Node class backing `std::allocate_shared<ActionState>`: the smallest node
/// that holds the state, the control block header and the allocator copy.
/// PoolAlloc::allocate rejects at compile time a control block that
/// outgrows it.
using StatePool = NodePool<96>;

/// Minimal allocator over a shared StatePool store, for
/// `std::allocate_shared<ActionState>` only: the one type it is rebound to
/// is the library's control block, which must fit a StatePool node.
template <typename T>
class PoolAlloc {
public:
  using value_type = T;

  explicit PoolAlloc(std::shared_ptr<StatePool::Store> store) noexcept
      : store_(std::move(store)) {}

  template <typename U>
  PoolAlloc(const PoolAlloc<U>& other) noexcept : store_(other.store()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    // Instantiated at each allocate_shared site with the control block type.
    // A field that pushes it past the node must fail the build, not fall
    // back to one heap allocation per action.
    static_assert(sizeof(T) <= StatePool::kNodeBytes && alignof(T) <= alignof(std::max_align_t),
                  "allocate_shared control block no longer fits a StatePool node");
    if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
    return static_cast<T*>(StatePool::allocate(*store_));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    StatePool::deallocate(*store_, p);
  }

  [[nodiscard]] const std::shared_ptr<StatePool::Store>& store() const noexcept { return store_; }

  friend bool operator==(const PoolAlloc& a, const PoolAlloc& b) noexcept {
    return a.store_ == b.store_;
  }

private:
  std::shared_ptr<StatePool::Store> store_;
};

}  // namespace ms::rt::detail
