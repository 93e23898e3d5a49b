#pragma once

#include <cstddef>

namespace ms::test {

/// Global `operator new` calls made so far by the test binary that links
/// alloc_counter.cpp, which replaces the global allocation functions with
/// counting wrappers. Tests compare the count before and after a steady-state
/// loop; only the delta matters.
[[nodiscard]] std::size_t allocations() noexcept;

}  // namespace ms::test
