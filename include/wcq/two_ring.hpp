// The two-ring value queue every SCQ-family backend is built from
// (wCQ §2.2/§5; SCQ §5): `aq` holds free data slots, `fq` holds filled
// ones, and a data array holds the values. Enqueue moves a slot
// aq -> data -> fq, dequeue moves it back. The data array is
// synchronised by the rings' release/acquire entry CASes.
//
// ScqQueue, NcqQueue and CcqQueue are this class over their ring;
// an LSCQ segment is it over a plain aq and a finalizable fq
// (wcq/lscq.hpp); wCQ is a helping layer over it with noted rings
// (wcq/wcq.hpp). Any ring with the kernel's index interface fits: an
// (order, remap, ...) constructor, fill() to start aq full,
// enqueue_idx/dequeue_idx taking an iteration budget, and
// kOk/kEmpty/kContended results.
//
// push and pop are the only aq -> data -> fq sequences. How each of
// their ring ops runs is a *ring-op rule*: `rule.dequeue<Fq>(ring,
// &idx)` and `rule.enqueue<Fq>(ring, idx)`, where Fq names the ring
// (false: aq, true: fq). The default, RunToCompletion, passes the
// kUnbounded budget, so the plain queues compile to the bare ring
// calls. wCQ's rule bounds each ring op by patience and completes a
// contended one through the note protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"

namespace wcq {

// The plain queues' ring-op rule: every ring op runs until it is done.
struct RunToCompletion {
  template <bool Fq, typename Ring>
  static typename Ring::Result dequeue(Ring& ring, std::uint64_t* idx) {
    return ring.dequeue_idx(idx, Ring::kUnbounded);
  }
  template <bool Fq, typename Ring>
  static typename Ring::Result enqueue(Ring& ring, std::uint64_t idx) {
    return ring.enqueue_idx(idx, Ring::kUnbounded);
  }
};

template <typename AqRing, typename FqRing = AqRing>
class TwoRingQueue {
 public:
  // The ring family's bound, the same as wCQ's note packing allows,
  // so one options value configures every queue in the lineup.
  static constexpr unsigned kMaxOrder = 20;

  // No per-thread state; the empty handle exists so every backend has
  // the same shape behind wcq::concepts::Backend.
  using Handle = TrivialHandle;

  // capacity = 2^order values. `ring_args` follow (order, remap) in
  // both rings' constructors, and then each ring gets its identity
  // bit is_fq: wCQ's noted rings take (portable, reqs, is_fq). The
  // plain queues pass none. Throws std::invalid_argument past
  // kMaxOrder, before allocating.
  template <typename... RingArgs>
  explicit TwoRingQueue(const options& opt, RingArgs... ring_args)
      : n_(std::uint64_t{1} << check_order(opt.order())),
        aq_(make_ring<AqRing>(opt, /*is_fq=*/false, ring_args...)),
        fq_(make_ring<FqRing>(opt, /*is_fq=*/true, ring_args...)) {
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
    }
    aq_.fill();
  }

  ~TwoRingQueue() {
    mem::free(data_, n_ * sizeof(std::atomic<std::uint64_t>));
  }

  TwoRingQueue(const TwoRingQueue&) = delete;
  TwoRingQueue& operator=(const TwoRingQueue&) = delete;

  std::uint64_t capacity() const { return n_; }

  Handle get_handle() { return Handle{}; }
  std::optional<Handle> try_get_handle() { return Handle{}; }

  bool try_push(std::uint64_t v, Handle&) { return push(v); }
  bool try_pop(std::uint64_t* v, Handle&) { return pop(v); }

  // The handle-free operations, which an LSCQ segment and wCQ's
  // helping layer are driven by.

  // False iff no free slot is left (full) or fq refuses the index (a
  // closed finalizable ring). A refused index dies with the queue.
  template <typename Rule = RunToCompletion>
  bool push(std::uint64_t v, Rule&& rule = {}) {
    std::uint64_t idx = 0;
    if (rule.template dequeue<false>(aq_, &idx) != AqRing::kOk) {
      return false;
    }
    data_[idx].store(v, std::memory_order_relaxed);
    return rule.template enqueue<true>(fq_, idx) == FqRing::kOk;
  }

  // False iff the queue is empty.
  template <typename Rule = RunToCompletion>
  bool pop(std::uint64_t* v, Rule&& rule = {}) {
    std::uint64_t idx = 0;
    if (rule.template dequeue<true>(fq_, &idx) != FqRing::kOk) {
      return false;
    }
    *v = data_[idx].load(std::memory_order_relaxed);
    rule.template enqueue<false>(aq_, idx);
    return true;
  }

  // Finalizable fq only: close it, then sweep the surviving pre-close
  // tickets (see FinalScqRing::drain_idx). A swept value is the
  // result; false certifies that no value can land here anymore.
  bool pop_last(std::uint64_t* v)
    requires requires(FqRing& r, std::uint64_t* i) { r.drain_idx(i); }
  {
    fq_.close();
    std::uint64_t idx = 0;
    if (fq_.drain_idx(&idx) != FqRing::kOk) return false;
    *v = data_[idx].load(std::memory_order_relaxed);
    return true;
  }

  // The rings themselves, for a layer that steps their requests
  // (wCQ's helpers).
  AqRing& aq() { return aq_; }
  FqRing& fq() { return fq_; }
  const FqRing& fq() const { return fq_; }

 private:
  static unsigned check_order(unsigned order) {
    if (order > kMaxOrder) {
      throw std::invalid_argument("scq family: order exceeds 20");
    }
    return order;
  }

  template <typename Ring, typename... A>
  static Ring make_ring(const options& opt, bool is_fq, A... a) {
    if constexpr (sizeof...(A) == 0) {
      return Ring(opt.order(), opt.remap());
    } else {
      return Ring(opt.order(), opt.remap(), a..., is_fq);
    }
  }

  const std::uint64_t n_;
  AqRing aq_;  // free slots (starts full: fill())
  FqRing fq_;  // filled slots (starts empty)
  std::atomic<std::uint64_t>* data_ = nullptr;
};

}  // namespace wcq
