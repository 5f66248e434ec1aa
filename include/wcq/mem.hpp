// Counting allocator every queue routes its dynamic allocations
// through, so the Figure 10 memory bench can report peak live bytes
// actually requested by the algorithm (not the allocator's slack).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "wcq/detail.hpp"

namespace wcq::mem {

struct Stats {
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t total_allocs = 0;
  std::uint64_t total_bytes = 0;
};

namespace detail {
inline std::atomic<std::uint64_t> live{0};
inline std::atomic<std::uint64_t> peak{0};
inline std::atomic<std::uint64_t> allocs{0};
inline std::atomic<std::uint64_t> total{0};

inline void on_alloc(std::size_t bytes) {
  allocs.fetch_add(1, std::memory_order_relaxed);
  total.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t now =
      live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t p = peak.load(std::memory_order_relaxed);
  while (p < now &&
         !peak.compare_exchange_weak(p, now, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Aligned, counted allocation. Pair with mem::free (sized).
inline void* alloc(std::size_t bytes,
                   std::size_t align = wcq::detail::kNoFalseSharing) {
  detail::on_alloc(bytes);
  return ::operator new(bytes, std::align_val_t{align});
}

inline void free(void* p, std::size_t bytes,
                 std::size_t align = wcq::detail::kNoFalseSharing) {
  if (p == nullptr) return;
  detail::live.fetch_sub(bytes, std::memory_order_relaxed);
  ::operator delete(p, bytes, std::align_val_t{align});
}

// An owned array of n default-constructed T from mem::alloc. As a
// member it is released when a later member's constructor throws.
template <typename T>
class Array {
 public:
  explicit Array(std::size_t n)
      : n_(n), p_(static_cast<T*>(alloc(n * sizeof(T)))) {
    for (std::size_t i = 0; i < n_; ++i) new (&p_[i]) T();
  }
  ~Array() {
    for (std::size_t i = 0; i < n_; ++i) p_[i].~T();
    free(p_, n_ * sizeof(T));
  }
  Array(const Array&) = delete;
  Array& operator=(const Array&) = delete;

  T* data() const { return p_; }
  T& operator[](std::size_t i) const { return p_[i]; }

 private:
  const std::size_t n_;
  T* const p_;
};

// Zero all counters (call between benchmark runs, with no queues live).
inline void reset() {
  detail::live.store(0, std::memory_order_relaxed);
  detail::peak.store(0, std::memory_order_relaxed);
  detail::allocs.store(0, std::memory_order_relaxed);
  detail::total.store(0, std::memory_order_relaxed);
}

inline Stats stats() {
  Stats s;
  s.live_bytes = detail::live.load(std::memory_order_relaxed);
  s.peak_bytes = detail::peak.load(std::memory_order_relaxed);
  s.total_allocs = detail::allocs.load(std::memory_order_relaxed);
  s.total_bytes = detail::total.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wcq::mem
