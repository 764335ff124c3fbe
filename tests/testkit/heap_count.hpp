#pragma once

/// \file heap_count.hpp
/// Per-thread count of global heap allocations, for tests that pin a
/// path as allocation-free. math::allocation_count() sees only the
/// buffers of math::Vector / math::Matrix; this also sees std::vector
/// and every other user of the global operator new.
///
/// Include in exactly ONE translation unit per test binary: it replaces
/// the global allocation functions, which a program defines once. The
/// count is per thread, so only the calling thread's own allocations
/// are observed.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace arb::testkit {
inline thread_local std::size_t t_heap_allocations = 0;

/// Heap allocations made by this thread while running `body`.
template <typename F>
std::size_t heap_allocations_during(F&& body) {
  const std::size_t before = t_heap_allocations;
  body();
  return t_heap_allocations - before;
}
}  // namespace arb::testkit

// Every unaligned form is replaced so that no allocation reaches another
// allocator's operator new and comes back through these deletes (a
// sanitizer runtime flags that mismatch). They pair malloc with free,
// which GCC cannot see through an inlined delete-expression.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++arb::testkit::t_heap_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
