// The two-ring value queue every SCQ-family backend is built from
// (wCQ §2.2/§5; SCQ §5): `aq` holds free data slots, `fq` holds filled
// ones, and a data array holds the values. Enqueue moves a slot
// aq -> data -> fq, dequeue moves it back. The data array is
// synchronised by the rings' release/acquire entry CASes.
//
// ScqQueue, NcqQueue and CcqQueue are this class over their ring;
// an LSCQ segment is it over a plain aq and a finalizable fq
// (wcq/lscq.hpp). Any ring with the kernel's index interface fits:
// an (order, remap) constructor, fill() to start aq full,
// enqueue_idx/dequeue_idx taking an iteration budget (kUnbounded
// here), and kOk/kEmpty results.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"

namespace wcq {

template <typename AqRing, typename FqRing = AqRing>
class TwoRingQueue {
 public:
  // The ring family's bound, the same as wCQ's note packing allows,
  // so one options value configures every queue in the lineup.
  static constexpr unsigned kMaxOrder = 20;

  // No per-thread state; the empty handle exists so every backend has
  // the same shape behind wcq::concepts::Backend.
  using Handle = TrivialHandle;

  // capacity = 2^order values.
  explicit TwoRingQueue(const options& opt)
      : n_(std::uint64_t{1} << check_order(opt.order())),
        aq_(opt.order(), opt.remap()),
        fq_(opt.order(), opt.remap()) {
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

  // The handle-free operations, which an LSCQ segment is driven by.

  // False iff no free slot is left (full) or fq refuses the index (a
  // closed finalizable ring). A refused index dies with the queue.
  bool push(std::uint64_t v) {
    std::uint64_t idx = 0;
    if (aq_.dequeue_idx(&idx, AqRing::kUnbounded) != AqRing::kOk) {
      return false;
    }
    data_[idx].store(v, std::memory_order_relaxed);
    return fq_.enqueue_idx(idx, FqRing::kUnbounded) == FqRing::kOk;
  }

  // False iff the queue is empty.
  bool pop(std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (fq_.dequeue_idx(&idx, FqRing::kUnbounded) != FqRing::kOk) {
      return false;
    }
    *v = data_[idx].load(std::memory_order_relaxed);
    aq_.enqueue_idx(idx, AqRing::kUnbounded);
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

 private:
  static unsigned check_order(unsigned order) {
    if (order > kMaxOrder) {
      throw std::invalid_argument("scq family: order exceeds 20");
    }
    return order;
  }

  const std::uint64_t n_;
  AqRing aq_;  // free slots (starts full: fill())
  FqRing fq_;  // filled slots (starts empty)
  std::atomic<std::uint64_t>* data_ = nullptr;
};

}  // namespace wcq
