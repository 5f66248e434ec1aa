/// \file
/// `wcq::queue<T, Backend>` — the typed public face of the library.
///
/// The paper presents wCQ as an index ring that "becomes" a general
/// queue by pairing aq/fq rings with a data array (§2.2, §5); the
/// backends here already store 64-bit slots, so the only missing piece
/// is a codec between T and a slot. `slot_codec<T>` stores any trivially
/// copyable T of at most 8 bytes directly in the slot (zero overhead —
/// for T = std::uint64_t the encode/decode compile away entirely) and
/// falls back to pointer indirection for anything larger, boxing the
/// value through the counting allocator so Figure 10's memory
/// accounting still sees it.
///
/// Handles are RAII: get_handle() registers the calling thread with
/// the backend (a ThreadRec slot for wCQ, a registry slot with its
/// hazard pointers for MSQ and the segment-list queues FAA, LSCQ and
/// LCRQ, nothing for SCQ/NCQ/CCQ, one of those per shard for
/// ShardedQueue) and destruction recycles
/// the registration, so max_threads bounds concurrent participants
/// rather than lifetime thread count.
///
/// Caveat: a backend may reserve slot bit patterns for its own
/// protocol (FaaQueue reserves the top two as EMPTY/TAKEN sentinels,
/// LcrqQueue the all-ones EMPTY pattern; wCQ, the SCQ family, LSCQ
/// and MSQ reserve none). An inline-encoded T whose bytes collide
/// with a reserved pattern (e.g. std::int64_t{-1} over FaaQueue) is
/// refused by that backend's try_push — use a boxed slot_codec
/// specialization over such backends when T needs the full 64-bit
/// space, since pointers never collide with the sentinels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>

#include "wcq/concepts.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/wcq.hpp"

namespace wcq {

/// True when T can live directly inside a 64-bit data slot.
template <typename T>
inline constexpr bool fits_in_slot_v =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t) &&
    std::is_default_constructible_v<T>;

/// `slot_codec<T>` maps T to and from a uint64_t slot. Specializable
/// for user types that have a smarter packing than the defaults (e.g.
/// tagged 48-bit pointers). `kBoxed` tells the facade whether a slot
/// owns an allocation that must be reclaimed on failed pushes / queue
/// teardown.
template <typename T, bool Inline = fits_in_slot_v<T>>
struct slot_codec;

/// Inline storage: bitwise copy into the low bytes of the slot.
template <typename T>
struct slot_codec<T, true> {
  static constexpr bool kBoxed = false;

  static std::uint64_t encode(const T& v) {
    std::uint64_t slot = 0;
    std::memcpy(&slot, &v, sizeof(T));
    return slot;
  }

  static T decode(std::uint64_t slot) {
    T v{};
    std::memcpy(&v, &slot, sizeof(T));
    return v;
  }

  static void drop(std::uint64_t) {}
};

/// Boxed storage: the slot carries a pointer to a heap copy. Goes
/// through mem::alloc so boxed traffic shows up in the Figure 10
/// memory accounting like every other queue allocation.
template <typename T>
struct slot_codec<T, false> {
  static constexpr bool kBoxed = true;

  static std::uint64_t encode(T v) {
    void* raw = mem::alloc(sizeof(T), alignof(T));
    T* p = new (raw) T(std::move(v));
    return reinterpret_cast<std::uint64_t>(p);
  }

  static T decode(std::uint64_t slot) {
    T* p = reinterpret_cast<T*>(slot);
    T v = std::move(*p);
    p->~T();
    mem::free(p, sizeof(T), alignof(T));
    return v;
  }

  static void drop(std::uint64_t slot) {
    T* p = reinterpret_cast<T*>(slot);
    p->~T();
    mem::free(p, sizeof(T), alignof(T));
  }
};

namespace detail {

/// Pushes slots[0..n) into b in order, stopping at the first refusal;
/// returns how many were accepted. Uses the backend's native burst
/// where it has one, else a loop with the same semantics.
template <typename B>
std::size_t push_n(B& b, const std::uint64_t* slots, std::size_t n,
                   typename B::Handle& h) {
  if constexpr (requires { b.try_push_n(slots, n, h); }) {
    return b.try_push_n(slots, n, h);
  } else {
    std::size_t ok = 0;
    while (ok < n && b.try_push(slots[ok], h)) ++ok;
    return ok;
  }
}

/// Pops up to n slots from b into slots[0..); returns how many
/// arrived (zero iff b is empty). Native burst or loop, as push_n.
template <typename B>
std::size_t pop_n(B& b, std::uint64_t* slots, std::size_t n,
                  typename B::Handle& h) {
  if constexpr (requires { b.try_pop_n(slots, n, h); }) {
    return b.try_pop_n(slots, n, h);
  } else {
    std::size_t ok = 0;
    while (ok < n && b.try_pop(&slots[ok], h)) ++ok;
    return ok;
  }
}

}  // namespace detail

/// The typed MPMC queue facade over any concepts::Backend.
///
/// Move-only, options-constructible, used through per-thread RAII
/// handles. Every instantiation satisfies concepts::Queue, which is
/// the constraint all benches, tests, and workloads in this repo
/// program against.
template <typename T, typename Backend = WcqQueue>
class queue {
  static_assert(concepts::Backend<Backend>,
                "Backend must satisfy wcq::concepts::Backend "
                "(options ctor + Handle + try_push/try_pop over slots)");

 public:
  using value_type = T;
  using backend_type = Backend;
  using codec = slot_codec<T>;

  /// Slots staged per batch chunk (stack-allocated, 2 KiB).
  static constexpr std::size_t kBatchChunk = 256;

  /// RAII thread registration; move-only. One per participating
  /// thread, and it must not outlive the queue it came from (its
  /// destructor returns the registration to the queue).
  class handle {
   public:
    handle() = delete;
    handle(handle&&) = default;
    handle& operator=(handle&&) = default;
    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

   private:
    friend class queue;
    explicit handle(typename Backend::Handle h) : h_(std::move(h)) {}
    typename Backend::Handle h_;
  };

  explicit queue(const options& opt = options{}) : backend_(opt) {}

  /// Boxed values still sitting in the queue own heap memory; reclaim
  /// them before the backend tears down its rings.
  ~queue() {
    if constexpr (codec::kBoxed) {
      auto h = backend_.try_get_handle();
      if (h) {
        std::uint64_t slot = 0;
        while (backend_.try_pop(&slot, *h)) codec::drop(slot);
      }
    }
  }

  queue(const queue&) = delete;
  queue& operator=(const queue&) = delete;

  /// nullopt iff max_threads handles are simultaneously live.
  std::optional<handle> try_get_handle() {
    auto h = backend_.try_get_handle();
    if (!h) return std::nullopt;
    return handle(std::move(*h));
  }

  /// Throwing flavor for call sites where exhaustion is a logic
  /// error.
  handle get_handle() { return handle(backend_.get_handle()); }

  /// False iff the queue is full (bounded backends only).
  bool try_push(T v, handle& h) {
    const std::uint64_t slot = codec::encode(std::move(v));
    if (backend_.try_push(slot, h.h_)) return true;
    codec::drop(slot);
    return false;
  }

  /// nullopt iff the queue is empty.
  std::optional<T> try_pop(handle& h) {
    std::uint64_t slot = 0;
    if (!backend_.try_pop(&slot, h.h_)) return std::nullopt;
    return codec::decode(slot);
  }

  /// Batch enqueue: pushes vs[0..n) in order, stopping at the first
  /// refusal (queue full, or a backend-reserved sentinel pattern);
  /// returns how many were accepted. Values are encoded kBatchChunk at
  /// a time and handed to detail::push_n, so a backend with a native
  /// burst (FaaQueue's single-FAA ticket run per segment,
  /// ShardedQueue's one shard pick) pays once per chunk. A refused
  /// value's box is dropped.
  std::size_t try_push_n(const T* vs, std::size_t n, handle& h) {
    std::uint64_t slots[kBatchChunk];
    std::size_t pushed = 0;
    while (pushed < n) {
      const std::size_t chunk = std::min(n - pushed, kBatchChunk);
      for (std::size_t i = 0; i < chunk; ++i) {
        slots[i] = codec::encode(vs[pushed + i]);
      }
      const std::size_t ok = detail::push_n(backend_, slots, chunk, h.h_);
      for (std::size_t i = ok; i < chunk; ++i) codec::drop(slots[i]);
      pushed += ok;
      if (ok < chunk) break;
    }
    return pushed;
  }

  /// Batch dequeue into out[0..n): returns how many values arrived
  /// (zero iff the queue is empty), in queue order, kBatchChunk at a
  /// time through detail::pop_n.
  std::size_t try_pop_n(T* out, std::size_t n, handle& h) {
    std::uint64_t slots[kBatchChunk];
    std::size_t got = 0;
    while (got < n) {
      const std::size_t chunk = std::min(n - got, kBatchChunk);
      const std::size_t ok = detail::pop_n(backend_, slots, chunk, h.h_);
      for (std::size_t i = 0; i < ok; ++i) {
        out[got + i] = codec::decode(slots[i]);
      }
      got += ok;
      if (ok < chunk) break;
    }
    return got;
  }

  /// Backend extras surface only where they exist (wCQ stats, bounded
  /// capacity), so the facade adds no requirements beyond the
  /// concept.
  auto capacity() const
    requires requires(const Backend& b) { b.capacity(); }
  {
    return backend_.capacity();
  }

  /// Fast/slow-path operation and help counters (ObservableQueue
  /// backends).
  auto stats() const
    requires requires(const Backend& b) { b.stats(); }
  {
    return backend_.stats();
  }

  /// Backends that reclaim through the shared SMR layer (MSQ, FAA,
  /// LSCQ, LCRQ) expose the domain's retire/scan counters.
  auto smr_stats() const
    requires requires(const Backend& b) { b.smr_stats(); }
  {
    return backend_.smr_stats();
  }

  Backend& backend() { return backend_; }
  const Backend& backend() const { return backend_; }

 private:
  Backend backend_;
};

}  // namespace wcq
