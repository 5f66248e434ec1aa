// The Michael-Scott list of bounded segments both unbounded ring
// queues are built from: LSCQ (Nikolaev, DISC 2019, §5; segments are
// two-ring SCQs) and LCRQ (Morrison & Afek, PPoPP 2013; segments are
// CRQs). The list owns everything the two share: the handle registry,
// the SMR domain, the append-a-seeded-segment push loop and the
// pop/unlink/retire loop.
//
// A segment type Seg supplies only
//
//   Seg(const options&)     a fresh, empty, open segment of 2^order
//   static kMaxOrder        the largest order it accepts
//   bool push(v)            false iff the segment takes no more values
//   bool pop(v*)            false iff the segment looked empty
//   bool pop_last(v*)       called once a successor exists: the
//                           segment takes no new values from then on,
//                           and false certifies none can appear in it
//   static kReserved        optional: a value the segment cannot store
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

  // 2^order values per segment; retire_threshold 0 = auto (see
  // wcq/smr.hpp).
  explicit SegmentList(const options& opt)
      : opt_(check_order(opt)),
        slots_(opt.max_threads() ? opt.max_threads() : 1),
        smr_(slots_.capacity(), opt.retire_threshold()) {
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
    if constexpr (requires { Seg::kReserved; }) {
      if (v == Seg::kReserved) return false;
    }
    const unsigned slot = h.slot();
    for (;;) {
      // The hazard keeps the segment alive across its ring ops even if
      // dequeuers drain and retire it meanwhile.
      Node* s = smr_.protect(slot, 0, tail_);
      if (Node* next = s->next.load(std::memory_order_acquire)) {
        // Someone already appended; help swing tail and retry there.
        tail_.compare_exchange_strong(s, next, std::memory_order_release,
                                      std::memory_order_relaxed);
        continue;
      }
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
    if (opt.order() > Seg::kMaxOrder) {
      throw std::invalid_argument(
          "segment list: order exceeds the segment's bound");
    }
    return opt;
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
