// wCQ (Nikolaev & Ravindran, SPAA 2022): a wait-free bounded queue
// built on the SCQ ring. The queue is the two-ring construction
// (wcq/two_ring.hpp: aq free indices -> data -> fq filled indices)
// over noted rings; this file is only the helping layer on top of it.
//
// The layer runs each ring op of a push or pop by one ring-op rule:
// the fast path is the ring op under patience (Section 6 uses 16
// enqueue / 64 dequeue attempts; the fq dequeue spends dequeue
// patience, the other three ring ops enqueue patience). A fast kEmpty
// is final. On kContended the ring op is published as this thread's
// RingRequest and completed through the paper's cooperative note
// protocol (Figures 4-7): every ring entry carries a note word next to
// it, claims and commits are double-width CASes, and *any* number of
// threads — the owner plus every helper that notices the request —
// advance the same pending operation concurrently. No thread ever
// takes exclusive ownership of a request; the commit is made unique by
// a single Pending->Phase2 transition on the request's ctl word, not
// by an executor claim. Threads check one peer for a pending request
// every `help_delay` own operations ("to amortize the cost of
// help_threads", Section 3.1). A push or pop counts as slow in
// stats() if any of its ring ops took the slow path.
//
// Compile with -DWCQ_ALL_SLOW to make the rule skip the fast attempt,
// so every ring op exercises the note protocol and every operation
// counts as slow (test builds only).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/ring_noted.hpp"  // ScqRingT + the Noted helping layer
#include "wcq/two_ring.hpp"

namespace wcq {

struct WcqStats {
  std::uint64_t fast_enqueues = 0;
  std::uint64_t slow_enqueues = 0;
  std::uint64_t fast_dequeues = 0;
  std::uint64_t slow_dequeues = 0;
  std::uint64_t helps = 0;
};

// Portable=true models the Section 4 build for LL/SC machines: every
// double-width CAS goes through the compiler's 128-bit __atomic path
// instead of the native cmpxchg16b — the algorithmic shape of the
// POWER version exercised on whatever ISA we run on.
template <bool Portable>
struct WcqTestAccess;

template <bool Portable>
class WcqQueueT {
  using Rings = TwoRingQueue<WcqRing>;
  // Note words carry ring indices in 21 aux bits.
  static_assert(Rings::kMaxOrder <= detail::kMaxNoteOrder);

 public:
  using Handle = RegistryHandle<WcqQueueT>;

  // Note words carry thread slots in 9 bits, so max_threads must be
  // <= detail::kMaxNoteThreads (512), and order <= 20 as for every
  // two-ring queue; the constructor throws std::invalid_argument
  // beyond either. Zero patience, help_delay or max_threads is raised
  // to 1.
  explicit WcqQueueT(const options& opt)
      : max_threads_(check_threads(opt.max_threads())),
        enqueue_patience_(at_least_one(opt.enqueue_patience())),
        dequeue_patience_(at_least_one(opt.dequeue_patience())),
        help_delay_(at_least_one(opt.help_delay())),
        reqs_(max_threads_),
        rings_(opt, Portable, reqs_.data()),
        slots_(max_threads_),
        recs_(max_threads_) {
    for (unsigned i = 0; i < max_threads_; ++i) {
      recs_[i].help_countdown = help_delay_;
    }
  }

  ~WcqQueueT() {
    // Lifetime contract: every handle must die before its queue — a
    // surviving handle's destructor would write into freed registry
    // memory. Catch the misuse here, where the guilty queue is known.
    assert(slots_.live() == 0 &&
           "wcq: a Handle is outliving its queue (use-after-free ahead)");
  }

  WcqQueueT(const WcqQueueT&) = delete;
  WcqQueueT& operator=(const WcqQueueT&) = delete;

  std::uint64_t capacity() const { return rings_.capacity(); }

  // Every participating thread needs its own handle (the paper's
  // per-thread state for helping). Handles are RAII: destruction
  // returns the ThreadRec slot to a free list, so max_threads bounds
  // *concurrent* participants, not lifetime thread count. A handle
  // must not outlive its queue (its destructor touches the queue's
  // registry); the queue's destructor asserts this in debug builds.
  //
  // nullopt iff max_threads handles are simultaneously live.
  std::optional<Handle> try_get_handle() {
    const unsigned slot = slots_.acquire();
    if (slot == SlotRegistry::kNone) return std::nullopt;
    return Handle(this, slot);
  }

  Handle get_handle() { return get_handle_or_throw(*this, "wcq"); }

  // False iff the queue is full.
  bool try_push(std::uint64_t v, Handle& h) {
    ThreadRec* rec = &recs_[h.slot()];
    maybe_help(rec);
    Helped rule{this, rec};
    const bool ok = rings_.push(v, rule);
    count(rule.slow ? rec->slow_enq : rec->fast_enq);
    return ok;
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle& h) {
    ThreadRec* rec = &recs_[h.slot()];
    maybe_help(rec);
    Helped rule{this, rec};
    const bool ok = rings_.pop(v, rule);
    count(rule.slow ? rec->slow_deq : rec->fast_deq);
    return ok;
  }

  // Read-only hint that try_pop would find the queue empty (the value
  // ring's probe, see ScqRingT::looks_empty). For callers choosing
  // among queues, such as ShardedQueue's scan; wCQ's own paths never
  // use it.
  bool looks_empty() const { return rings_.fq().looks_empty(); }

  WcqStats stats() const {
    WcqStats s;
    // Counters survive slot recycling (they are per-slot accumulators,
    // never reset on release), so this sum is consistent across any
    // amount of thread churn.
    const unsigned touched = slots_.high_water();
    for (unsigned i = 0; i < touched; ++i) {
      s.fast_enqueues += recs_[i].fast_enq.load(std::memory_order_relaxed);
      s.slow_enqueues += recs_[i].slow_enq.load(std::memory_order_relaxed);
      s.fast_dequeues += recs_[i].fast_deq.load(std::memory_order_relaxed);
      s.slow_dequeues += recs_[i].slow_deq.load(std::memory_order_relaxed);
      s.helps += recs_[i].helps.load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  // Test-only backdoor (tests/test_helping.cpp, test_slow_path.cpp):
  // publishes a request without the owner driving it, so the
  // helper-completion path gets deterministic coverage.
  friend struct WcqTestAccess<Portable>;

  struct alignas(detail::kNoFalseSharing) ThreadRec {
    // Written only by the slot's owner (count()), read by stats().
    std::atomic<std::uint64_t> fast_enq{0};
    std::atomic<std::uint64_t> slow_enq{0};
    std::atomic<std::uint64_t> fast_deq{0};
    std::atomic<std::uint64_t> slow_deq{0};
    std::atomic<std::uint64_t> helps{0};
    // Owner-thread locals (never touched by helpers). seq is only
    // published through the RingRequest ctl word; help_countdown runs
    // from help_delay to 0 over the owner's operations.
    std::uint64_t seq = 0;
    unsigned help_countdown = 0;
    unsigned help_cursor = 0;
  };

  // The ring-op rule (see the file comment). `slow` records whether
  // any ring op of this push or pop went slow.
  struct Helped {
#if defined(WCQ_ALL_SLOW)
    static constexpr bool kFastPath = false;
#else
    static constexpr bool kFastPath = true;
#endif
    WcqQueueT* q;
    ThreadRec* rec;
    bool slow = false;

    template <bool Fq>
    WcqRing::Result dequeue(WcqRing& ring, std::uint64_t* idx) {
      if constexpr (kFastPath) {
        const WcqRing::Result rc = ring.dequeue_idx(
            idx, Fq ? q->dequeue_patience_ : q->enqueue_patience_);
        if (rc != WcqRing::kContended) return rc;
      }
      slow = true;
      q->publish_ring_op(rec, Fq, /*deq=*/true, 0);
      return q->complete_ring_op(rec, idx) ? WcqRing::kOk : WcqRing::kEmpty;
    }

    template <bool Fq>
    WcqRing::Result enqueue(WcqRing& ring, std::uint64_t idx) {
      if constexpr (kFastPath) {
        if (ring.enqueue_idx(idx, q->enqueue_patience_) == WcqRing::kOk) {
          return WcqRing::kOk;
        }
      }
      slow = true;
      q->publish_ring_op(rec, Fq, /*deq=*/false, idx);
      q->complete_ring_op(rec, nullptr);  // a ring enqueue cannot fail
      return WcqRing::kOk;
    }
  };

  // Single-writer increment: only the owner writes its record's
  // counters, so a relaxed load+store replaces a locked RMW. stats()
  // may read a count one behind, never a torn one.
  static void count(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  friend class RegistryHandle<WcqQueueT>;

  static unsigned at_least_one(unsigned v) { return v == 0 ? 1 : v; }

  // Reject rather than clamp — lost handle slots would be far harder
  // to debug than this throw.
  static unsigned check_threads(unsigned v) {
    if (v > detail::kMaxNoteThreads) {
      throw std::invalid_argument(
          "wcq: max_threads exceeds kMaxNoteThreads (512)");
    }
    return at_least_one(v);
  }

  void release_slot(unsigned slot) {
    // The owner is past its last operation, so its request is Idle and
    // helpers ignore it; counters intentionally persist so stats()
    // stays monotone across recycling.
    slots_.release(slot);
  }

  // h's record through h's own queue: WcqTestAccess::helps(h) has no
  // queue argument.
  static ThreadRec* rec_of(Handle& h) { return &h.q_->recs_[h.slot()]; }

  RingRequest* req_of(ThreadRec* rec) {
    return &reqs_[static_cast<unsigned>(rec - recs_.data())];
  }

  WcqRing& ring(bool fq_ring) { return fq_ring ? rings_.fq() : rings_.aq(); }

  // Publish one ring-level operation as this thread's request. Does
  // not drive it: from this moment any helper can complete it.
  void publish_ring_op(ThreadRec* rec, bool fq_ring, bool deq,
                       std::uint64_t arg) {
    RingRequest* r = req_of(rec);
    const std::uint64_t seq = ++rec->seq;
    r->arg.store(arg, std::memory_order_relaxed);
    r->result.store(detail::pack_result(seq, detail::kResultNone),
                    std::memory_order_relaxed);
    r->pos.store(deq ? ring(fq_ring).head() : ring(fq_ring).tail(),
                 std::memory_order_relaxed);
    r->ctl.store(detail::pack_ctl(seq, 0, fq_ring, deq, detail::kReqPending),
                 std::memory_order_release);
  }

  // Owner side: drive own request to a terminal state, harvest the
  // result, and return the record to Idle. True iff DoneOk.
  bool complete_ring_op(ThreadRec* rec, std::uint64_t* out) {
    RingRequest* r = req_of(rec);
    std::uint64_t c = r->ctl.load(std::memory_order_acquire);
    ring(detail::ctl_fq(c)).help_slow(r);
    c = r->ctl.load(std::memory_order_acquire);
    const bool ok = detail::ctl_state(c) == detail::kReqDoneOk;
    if (ok && out != nullptr) {
      // finalize() CASed the seq-tagged result in before DoneOk.
      *out = detail::result_val(r->result.load(std::memory_order_acquire));
    }
    r->ctl.store(detail::ctl_with(c, 0, detail::kReqIdle),
                 std::memory_order_release);
    return ok;
  }

  // Helper side: drive a peer's request if it has one pending. Safe to
  // call concurrently with the owner and other helpers; everyone
  // advances the same shared state by CAS.
  bool help_request(RingRequest* r) {
    const std::uint64_t c = r->ctl.load(std::memory_order_acquire);
    const std::uint64_t st = detail::ctl_state(c);
    if (st != detail::kReqPending && st != detail::kReqPhase2) return false;
    ring(detail::ctl_fq(c)).help_slow(r);
    return true;
  }

  // Every help_delay own-operations, look at one peer (round-robin)
  // and drive its pending request, if any, to completion.
  void maybe_help(ThreadRec* rec) {
    if (--rec->help_countdown != 0) return;
    rec->help_countdown = help_delay_;
    const unsigned touched = slots_.high_water();
    if (touched <= 1) return;
    unsigned peer = rec->help_cursor++ % touched;
    if (&recs_[peer] == rec) {
      // Landing on our own record must still spend the round on a real
      // peer: consecutive cursor values differ mod touched (>= 2), so
      // one step forward is guaranteed to leave our record.
      peer = rec->help_cursor++ % touched;
    }
    if (help_request(&reqs_[peer])) {
      count(rec->helps);
    }
  }

  const unsigned max_threads_;
  const unsigned enqueue_patience_;
  const unsigned dequeue_patience_;
  const unsigned help_delay_;
  // Built in this order: requests, aq, fq, data, registry, records.
  // reqs_ is owned, so it is freed when rings_ throws on a bad order.
  // The order decides which freed blocks the allocator trims between
  // constructions, and so how many pages the next one faults in: with
  // the records before the registry, perfbench's LSCQ set-up (built
  // after wCQ's) tripled.
  mem::Array<RingRequest> reqs_;  // shared by both rings, indexed by slot
  Rings rings_;
  SlotRegistry slots_;
  mem::Array<ThreadRec> recs_;
};

// Deterministic slow-path levers for the test suite: publish a request
// exactly as a stalling owner would, let other handles help it, then
// resume the owner. The two-stage levers are the queue's own push and
// pop with one stage replaced.
template <bool Portable>
struct WcqTestAccess {
  using Q = WcqQueueT<Portable>;
  using H = typename Q::Handle;

  // Owner published a slow pop (stage 1: fq dequeue) and stalled.
  static void publish_stalled_pop(Q& q, H& h) {
    q.publish_ring_op(Q::rec_of(h), /*fq_ring=*/true, /*deq=*/true, 0);
  }

  // Owner got its free index, wrote the value, published the fq
  // enqueue (stage 2) — and stalled before driving it. False iff the
  // aq had no free index (queue full): nothing is published then, so
  // a test never installs a garbage index.
  static bool publish_stalled_push(Q& q, H& h, std::uint64_t v) {
    return q.rings_.push(v, PublishFqEnqueue{{&q, Q::rec_of(h)}});
  }

  // Helper-side single call: drive h's request as maybe_help would.
  static bool help(Q& q, H& h) {
    return q.help_request(q.req_of(Q::rec_of(h)));
  }

  static bool done_ok(Q& q, H& h) {
    const std::uint64_t c =
        q.req_of(Q::rec_of(h))->ctl.load(std::memory_order_acquire);
    return detail::ctl_state(c) == detail::kReqDoneOk;
  }

  // Owner resumes a stalled pop: finish stage 1 (possibly already done
  // by helpers), then run stage 2 (return the index to aq).
  static bool finish_pop(Q& q, H& h, std::uint64_t* v) {
    return q.rings_.pop(v, CompleteFqDequeue{{&q, Q::rec_of(h)}});
  }

  // Owner resumes a stalled push: its stage 2 is the whole remainder.
  static bool finish_push(Q& q, H& h) {
    return q.complete_ring_op(Q::rec_of(h), nullptr);
  }

  static std::uint64_t helps(H& h) {
    return Q::rec_of(h)->helps.load(std::memory_order_relaxed);
  }

 private:
  // wCQ's ring-op rule with the fq enqueue only published.
  struct PublishFqEnqueue : Q::Helped {
    template <bool Fq>
    WcqRing::Result enqueue(WcqRing&, std::uint64_t idx) {
      this->q->publish_ring_op(this->rec, Fq, /*deq=*/false, idx);
      return WcqRing::kOk;
    }
  };

  // wCQ's ring-op rule with the fq dequeue taken from the request
  // already published.
  struct CompleteFqDequeue : Q::Helped {
    template <bool Fq>
    WcqRing::Result dequeue(WcqRing&, std::uint64_t* idx) {
      return this->q->complete_ring_op(this->rec, idx) ? WcqRing::kOk
                                                       : WcqRing::kEmpty;
    }
  };
};

using WcqQueue = WcqQueueT<false>;
using WcqPortableQueue = WcqQueueT<true>;

}  // namespace wcq
