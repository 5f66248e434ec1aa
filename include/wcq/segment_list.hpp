// The Michael-Scott list of bounded segments every unbounded array
// queue here is built from: LSCQ (Nikolaev, DISC 2019, §5; segments
// are two-ring SCQs), LCRQ (Morrison & Afek, PPoPP 2013; segments are
// CRQs) and FAA (Ramalhete & Correia's FAAArrayQueue; segments are
// FAA arrays). The list owns everything they share: the handle
// registry, the SMR domain, the append-a-seeded-segment push loop and
// the pop/unlink/retire loop.
//
// A segment type Seg supplies only
//
//   Seg(const options&)     a fresh, empty, open segment
//   bool push(v)            false iff the segment takes no more values
//   bool pop(v*)            false iff the segment looked empty
//   bool pop_last(v*)       called once a successor exists: the
//                           segment takes no new values from then on,
//                           and false certifies none can appear in it
//   static kMaxOrder        optional: the largest options::order a
//                           segment sized by order accepts
//   static kReserved        optional: values >= it cannot be stored
//   push_n(vs, n), pop_n(out, n)
//                           optional native burst: push a prefix of
//                           vs, stopping at the first value the
//                           segment refuses; pop up to n values, zero
//                           iff the segment looked empty
//
// Enqueue works on the tail segment; when it refuses, a fresh segment
// seeded with the value is appended. Dequeue drains the head segment;
// once it is empty and a successor exists, pop_last() proves it
// sterile and it is unlinked and retired through the shared SMR domain
// (wcq/smr.hpp) under the caller's hazard pointer, which keeps the
// parked-segment count bounded by the amnesty threshold (the bound on
// parked segments that Aksenov et al., *Memory-Optimal Non-Blocking
// Queues*, frame).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/smr.hpp"

namespace wcq {

template <typename Seg>
class SegmentList {
 public:
  using Handle = RegistryHandle<SegmentList>;

  explicit SegmentList(const options& opt)
      : opt_(check_order(opt)),
        slots_(opt.max_threads() ? opt.max_threads() : 1),
        smr_(slots_.capacity()) {
    Node* s = new_node();
    head_.store(s, std::memory_order_relaxed);
    tail_.store(s, std::memory_order_relaxed);
  }

  ~SegmentList() {
    assert(slots_.live() == 0 &&
           "segment list: a Handle is outliving its queue");
    // head_ anchors every live segment; retired ones are freed by the
    // domain's destructor.
    Node* s = head_.load(std::memory_order_relaxed);
    while (s != nullptr) {
      Node* next = s->next.load(std::memory_order_relaxed);
      free_node(s, nullptr);
      s = next;
    }
  }

  SegmentList(const SegmentList&) = delete;
  SegmentList& operator=(const SegmentList&) = delete;

  std::optional<Handle> try_get_handle() {
    const unsigned slot = slots_.acquire();
    if (slot == SlotRegistry::kNone) return std::nullopt;
    return Handle(this, slot);
  }

  Handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "segment list: all max_threads handle slots are live");
    }
    return std::move(*h);
  }

  // Succeeds for every storable value (unbounded: a refusing segment
  // is succeeded by a fresh one). A segment's reserved value is
  // refused (false) rather than silently lost.
  bool try_push(std::uint64_t v, Handle& h) {
    if (!storable(v)) return false;
    const unsigned slot = h.slot();
    for (;;) {
      Node* s = protect_tail(slot);
      if (s->seg.push(v)) return true;
      // Seed a fresh segment with the value (it is empty and open, so
      // this cannot fail) and link it.
      Node* fresh = new_node();
      const bool seeded = fresh->seg.push(v);
      assert(seeded && "push on a fresh segment cannot fail");
      (void)seeded;
      Node* expected = nullptr;
      if (s->next.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(s, fresh, std::memory_order_release,
                                      std::memory_order_relaxed);
        return true;
      }
      free_node(fresh, nullptr);  // lost the append race; nobody saw ours
    }
  }

  // Native burst, where the segment has one: the storable prefix of
  // vs goes to the tail segment in runs. The first value a run leaves
  // behind (the segment filled, or a dequeuer poisoned its cell) goes
  // through try_push, and the run after it bursts again, so each
  // pusher's values keep their order. Returns the prefix length.
  std::size_t try_push_n(const std::uint64_t* vs, std::size_t n, Handle& h)
    requires requires(Seg& seg) { seg.push_n(vs, n); }
  {
    std::size_t k = 0;
    while (k < n && storable(vs[k])) ++k;
    std::size_t done = 0;
    while (done < k) {
      done += protect_tail(h.slot())->seg.push_n(vs + done, k - done);
      if (done == k || !try_push(vs[done], h)) break;
      ++done;
    }
    return done;
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle& h) {
    const unsigned slot = h.slot();
    for (;;) {
      Node* s = smr_.protect(slot, 0, head_);
      if (s->seg.pop(v)) return true;
      Node* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // no successor: truly empty
      // A successor exists, so this segment takes no new values; a
      // value that slipped in before that is our result, and a
      // sterile segment may retire.
      if (s->seg.pop_last(v)) return true;
      Node* expected = s;
      if (head_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        smr_.retire(slot, s, &free_node, nullptr);
      }
    }
  }

  // Native burst, where the segment has one: runs from the head
  // segment, with try_pop moving on to the next segment between runs.
  // Zero iff the queue is empty.
  std::size_t try_pop_n(std::uint64_t* out, std::size_t n, Handle& h)
    requires requires(Seg& seg) { seg.pop_n(out, n); }
  {
    std::size_t done = 0;
    while (done < n) {
      Node* s = smr_.protect(h.slot(), 0, head_);
      done += s->seg.pop_n(out + done, n - done);
      if (done == n || !try_pop(&out[done], h)) break;
      ++done;
    }
    return done;
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

 private:
  friend Handle;

  struct Node {
    explicit Node(const options& opt) : seg(opt) {}

    alignas(detail::kNoFalseSharing) std::atomic<Node*> next{nullptr};
    Seg seg;
  };

  void release_slot(unsigned slot) {
    smr_.quiesce(slot);
    slots_.release(slot);
  }

  static const options& check_order(const options& opt) {
    if constexpr (requires { Seg::kMaxOrder; }) {
      if (opt.order() > Seg::kMaxOrder) {
        throw std::invalid_argument(
            "segment list: order exceeds the segment's bound");
      }
    }
    return opt;
  }

  static bool storable(std::uint64_t v) {
    if constexpr (requires { Seg::kReserved; }) {
      return v < Seg::kReserved;
    } else {
      return true;
    }
  }

  // The tail segment under the caller's hazard, once no successor is
  // linked after it (a linked one is first helped into tail_). The
  // hazard keeps the segment alive across its ring ops even if
  // dequeuers drain and retire it meanwhile.
  Node* protect_tail(unsigned slot) {
    for (;;) {
      Node* s = smr_.protect(slot, 0, tail_);
      Node* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) return s;
      tail_.compare_exchange_strong(s, next, std::memory_order_release,
                                    std::memory_order_relaxed);
    }
  }

  Node* new_node() { return new (mem::alloc(sizeof(Node))) Node(opt_); }

  static void free_node(void* p, void*) {
    static_cast<Node*>(p)->~Node();
    mem::free(p, sizeof(Node));
  }

  const options opt_;

  alignas(detail::kNoFalseSharing) std::atomic<Node*> head_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Node*> tail_{nullptr};
  SlotRegistry slots_;
  smr::Domain smr_;
};

}  // namespace wcq
