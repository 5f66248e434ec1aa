// LSCQ — the unbounded queue of the SCQ paper (Nikolaev, DISC 2019,
// §5) and the strongest lock-free contender in wCQ's Figures 10-12: a
// Michael-Scott list whose nodes are whole SCQ segments (two-ring
// bounded queues). Values live in per-segment data arrays, so — unlike
// LCRQ/FAA — no value bit pattern is reserved: every uint64_t is
// storable.
//
// Enqueue works on the list tail's segment; when its value ring
// refuses (closed) or its free-index ring is exhausted, a fresh
// segment seeded with the value is appended. Dequeue drains the head
// segment; when it is empty *and* a successor exists, the segment is
// finalized:
//
//   1. fq.close() — Tail's bit 63 — makes every new enqueue ticket
//      abort with kClosed before touching an entry.
//   2. fq.drain_idx() burns head tickets past every position a
//      pre-close ticket could still install at (SCQ's threshold-spent
//      kEmpty does NOT imply head >= tail, so an in-flight pre-close
//      enqueue could otherwise install into a retired segment and the
//      value would vanish). A drained value is simply this dequeue's
//      result; kEmpty from drain is a sterility certificate.
//   3. Only a sterile segment is unlinked and retired through the
//      shared SMR domain (wcq/smr.hpp) under the caller's hazard
//      pointer — the same discipline as lcrq.hpp, which keeps the
//      parked-segment count bounded by the amnesty threshold.
//
// A pusher whose fq enqueue hits kClosed abandons its free index in
// the dying segment (the value was never visible, the index dies with
// the segment's allocation) and retries on the current list tail.
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
#include "wcq/scq_ring.hpp"
#include "wcq/smr.hpp"

namespace wcq {

class LscqQueue {
 public:
  using Handle = RegistryHandle<LscqQueue>;

  // 2^order values per segment; retire_threshold 0 = auto (see
  // wcq/smr.hpp).
  explicit LscqQueue(const options& opt)
      : order_(check_order(opt.order())),
        n_(std::uint64_t{1} << order_),
        remap_(opt.remap()),
        slots_(opt.max_threads() ? opt.max_threads() : 1),
        smr_(slots_.capacity(), opt.retire_threshold()) {
    Segment* s = new_segment();
    head_.store(s, std::memory_order_relaxed);
    tail_.store(s, std::memory_order_relaxed);
  }

  ~LscqQueue() {
    assert(slots_.live() == 0 &&
           "lscq: a Handle is outliving its queue (use-after-free ahead)");
    // head_ anchors every live segment; retired ones are freed by the
    // domain's destructor.
    Segment* s = head_.load(std::memory_order_relaxed);
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      free_segment(this, s);
      s = next;
    }
  }

  LscqQueue(const LscqQueue&) = delete;
  LscqQueue& operator=(const LscqQueue&) = delete;

  std::optional<Handle> try_get_handle() {
    const unsigned slot = slots_.acquire();
    if (slot == SlotRegistry::kNone) return std::nullopt;
    return Handle(this, slot);
  }

  Handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "lscq: all max_threads handle slots are simultaneously live");
    }
    return std::move(*h);
  }

  // Succeeds for every value (unbounded: a full or closed segment is
  // succeeded by a fresh one).
  bool try_push(std::uint64_t v, Handle& h) {
    const unsigned slot = h.slot();
    for (;;) {
      // The hazard keeps the segment alive across its ring ops even if
      // dequeuers drain and retire it meanwhile.
      Segment* s = smr_.protect(slot, 0, tail_);
      if (Segment* next = s->next.load(std::memory_order_acquire)) {
        // Someone already appended; help swing tail and retry there.
        tail_.compare_exchange_strong(s, next, std::memory_order_release,
                                      std::memory_order_relaxed);
        continue;
      }
      if (seg_push(s, v)) return true;
      // Segment full or closed. Seed a fresh segment with the value
      // (its rings are empty and open, so this cannot fail) and link.
      Segment* fresh = new_segment();
      const bool seeded = seg_push(fresh, v);
      assert(seeded && "push on a fresh segment cannot fail");
      (void)seeded;
      Segment* expected = nullptr;
      if (s->next.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(s, fresh, std::memory_order_release,
                                      std::memory_order_relaxed);
        return true;
      }
      free_segment(this, fresh);  // lost the append race; nobody saw ours
    }
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle& h) {
    const unsigned slot = h.slot();
    for (;;) {
      Segment* s = smr_.protect(slot, 0, head_);
      if (seg_pop(s, v)) return true;
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // no successor: truly empty
      // A successor exists, so this segment takes no new values —
      // finalize it: close, then sweep the surviving pre-close
      // tickets. A swept value is our result; sterility lets the
      // segment retire.
      s->fq.close();
      std::uint64_t idx = 0;
      if (s->fq.drain_idx(&idx) == FinalScqRing::kOk) {
        *v = s->data()[idx].load(std::memory_order_relaxed);
        return true;
      }
      Segment* expected = s;
      if (head_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        smr_.retire(slot, s, &free_segment_erased, this);
      }
    }
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

  unsigned ring_order() const { return order_; }

 private:
  friend class RegistryHandle<LscqQueue>;

  void release_slot(unsigned slot) {
    smr_.quiesce(slot);
    slots_.release(slot);
  }

  // One list node: a bounded two-ring SCQ whose value ring (fq) is
  // finalizable. The data array lives in trailing storage.
  struct Segment {
    Segment(unsigned order, bool remap)
        : aq(order, remap, /*portable_consume=*/false),
          fq(order, remap, /*portable_consume=*/false) {}

    alignas(detail::kNoFalseSharing) std::atomic<Segment*> next{nullptr};
    ScqRing aq;       // free slots (starts full)
    FinalScqRing fq;  // filled slots (starts empty, closable)
    std::atomic<std::uint64_t>* data() {
      return reinterpret_cast<std::atomic<std::uint64_t>*>(this + 1);
    }
  };

  // Push into one segment. False iff the segment can take no more
  // values: free-index ring exhausted (full) or value ring closed.
  bool seg_push(Segment* s, std::uint64_t v) {
    std::uint64_t idx = 0;
    if (s->aq.dequeue_idx(&idx, ScqRing::kUnbounded) == ScqRing::kEmpty) {
      return false;  // no free slots: full
    }
    s->data()[idx].store(v, std::memory_order_relaxed);
    if (s->fq.enqueue_idx(idx, FinalScqRing::kUnbounded) ==
        FinalScqRing::kClosed) {
      // The value was never visible; the index dies with the segment.
      return false;
    }
    return true;
  }

  bool seg_pop(Segment* s, std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (s->fq.dequeue_idx(&idx, FinalScqRing::kUnbounded) ==
        FinalScqRing::kEmpty) {
      return false;
    }
    *v = s->data()[idx].load(std::memory_order_relaxed);
    s->aq.enqueue_idx(idx, ScqRing::kUnbounded);
    return true;
  }

  static unsigned check_order(unsigned order) {
    if (order > 20) {
      throw std::invalid_argument("lscq: segment order exceeds 20");
    }
    return order;
  }

  std::size_t seg_bytes() const {
    return sizeof(Segment) + n_ * sizeof(std::atomic<std::uint64_t>);
  }

  Segment* new_segment() {
    void* raw = mem::alloc(seg_bytes());
    Segment* s = new (raw) Segment(order_, remap_);
    std::atomic<std::uint64_t>* data = s->data();
    for (std::uint64_t i = 0; i < n_; ++i) {
      new (&data[i]) std::atomic<std::uint64_t>(0);
      s->aq.enqueue_idx(i, ScqRing::kUnbounded);
    }
    return s;
  }

  static void free_segment(LscqQueue* q, Segment* s) {
    s->~Segment();
    mem::free(s, q->seg_bytes());
  }

  static void free_segment_erased(void* p, void* ctx) {
    free_segment(static_cast<LscqQueue*>(ctx), static_cast<Segment*>(p));
  }

  const unsigned order_;
  const std::uint64_t n_;
  const bool remap_;

  alignas(detail::kNoFalseSharing) std::atomic<Segment*> head_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Segment*> tail_{nullptr};
  SlotRegistry slots_;
  smr::Domain smr_;
};

}  // namespace wcq
