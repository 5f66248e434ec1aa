/// \file
/// wcq::smr — the shared safe-memory-reclamation layer every
/// dynamic-memory backend (MSQ, and the segment list under FAA, LSCQ
/// and LCRQ) routes retired nodes through.
///
/// One Domain per queue, sized by the queue's max_threads: each
/// handle slot owns a fixed strip of hazard-pointer words, so the
/// reclamation state — like the ThreadRec records it sits next to —
/// is bounded by *concurrent* participants (SlotRegistry recycles the
/// slots; quiesce() is the hand-back hook).
///
/// Protection is by hazard pointers (Michael 2004; the YMC
/// `check`/`update` hazard idiom in SNIPPETS.md is the same shape):
/// protect(slot, i, src) publishes a pointer and re-validates the
/// source until stable. A retired node whose address is published
/// anywhere is not freed. MSQ protects the node and its successor;
/// the segment list the one segment in hand.
///
/// Retiring is wait-free and amortized: retired nodes park on the
/// calling slot's local list; when the list reaches the amnesty bound
/// (MAX_GARBAGE shape: 2 x max_threads, or the Domain constructor's
/// second argument) the slot scans — one snapshot of all hazard words
/// — and frees every node no hazard holds. Total parked garbage is
/// therefore bounded by max_threads x threshold (+ one hazard-held
/// node per hazard word), restoring the bounded-memory comparison
/// Figure 10 is supposed to make.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <new>
#include <vector>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"

namespace wcq::smr {

/// Domain-wide reclamation counters, summed over all slots.
struct Stats {
  std::uint64_t retired_nodes = 0;    ///< currently parked, not yet freed
  std::uint64_t reclaimed_nodes = 0;  ///< freed by scans (not the dtor)
  std::uint64_t retire_calls = 0;     ///< total retire() invocations
  std::uint64_t scans = 0;            ///< reclamation scans run
};

/// One reclamation domain per queue: a hazard-pointer strip per
/// handle slot, slot-local retire lists with an amnesty bound.
class Domain {
 public:
  /// Hazard words per slot. Two is what the classic algorithms need
  /// (MSQ protects a node and its successor; LCRQ one ring at a
  /// time).
  static constexpr unsigned kHazardsPerSlot = 2;

  /// retire_threshold 0 = auto: MAX_GARBAGE(n) = 2n per slot. Queues
  /// use the auto bound; tests pass a threshold to force or hold off
  /// scans.
  explicit Domain(unsigned max_slots, unsigned retire_threshold = 0)
      : slots_(max_slots),
        threshold_(retire_threshold != 0 ? retire_threshold
                                         : 2 * (max_slots ? max_slots : 1)),
        state_(static_cast<SlotState*>(
            mem::alloc(slots_ * sizeof(SlotState), alignof(SlotState)))) {
    for (unsigned i = 0; i < slots_; ++i) new (&state_[i]) SlotState();
  }

  /// Teardown contract mirrors the queues': no concurrent access.
  /// Every still-parked node is freed unconditionally.
  ~Domain() {
    for (unsigned i = 0; i < slots_; ++i) {
      for (const Retired& r : state_[i].retired) r.del(r.p, r.ctx);
      state_[i].~SlotState();
    }
    mem::free(state_, slots_ * sizeof(SlotState), alignof(SlotState));
  }

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  // ---- hazard pointers ----

  /// Publish src's current value as hazard `i` of `slot` and re-read
  /// until the publication provably happened before a load that still
  /// sees the same pointer; from then on the pointee cannot be freed
  /// until the hazard is overwritten or cleared.
  template <typename T>
  T* protect(unsigned slot, unsigned i, const std::atomic<T*>& src) {
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      state_[slot].hp[i].store(p, std::memory_order_seq_cst);
      T* again = src.load(std::memory_order_seq_cst);
      if (again == p) return p;
      p = again;
    }
  }

  void clear_hazard(unsigned slot, unsigned i) {
    state_[slot].hp[i].store(nullptr, std::memory_order_release);
  }

  // ---- retire / scan ----

  /// Hand `p` to the domain; del(p, ctx) runs once no hazard holds
  /// it. Caller must have already unlinked `p` from every shared
  /// root. Only the owner of `slot` may call (slot-local list).
  void retire(unsigned slot, void* p, void (*del)(void*, void*), void* ctx) {
    SlotState& s = state_[slot];
    s.retired.push_back(Retired{p, del, ctx});
    s.retired_count.store(s.retired.size(), std::memory_order_relaxed);
    s.retire_calls.fetch_add(1, std::memory_order_relaxed);
    if (s.retired.size() >= threshold_) scan(slot);
  }

  /// Free every node on `slot`'s list that no hazard protects. A
  /// reader whose hazard store comes after this snapshot re-reads its
  /// source in protect() and sees the post-unlink root, so it cannot
  /// reach our retirees.
  void scan(unsigned slot) {
    SlotState& s = state_[slot];
    s.scans.fetch_add(1, std::memory_order_relaxed);
    // Orders the callers' unlinks (acq_rel CASes) before the hazard
    // loads, against protect()'s store-then-reload.
    std::atomic_thread_fence(std::memory_order_seq_cst);

    std::vector<void*> hazards;
    hazards.reserve(slots_ * kHazardsPerSlot);
    for (unsigned i = 0; i < slots_; ++i) {
      for (unsigned j = 0; j < kHazardsPerSlot; ++j) {
        if (void* h = state_[i].hp[j].load(std::memory_order_seq_cst)) {
          hazards.push_back(h);
        }
      }
    }

    auto protected_by_hazard = [&](void* p) {
      for (void* h : hazards) {
        if (h == p) return true;
      }
      return false;
    };

    std::size_t kept = 0;
    for (std::size_t i = 0; i < s.retired.size(); ++i) {
      const Retired& r = s.retired[i];
      if (!protected_by_hazard(r.p)) {
        r.del(r.p, r.ctx);
        s.reclaimed.fetch_add(1, std::memory_order_relaxed);
      } else {
        s.retired[kept++] = r;
      }
    }
    s.retired.resize(kept);
    s.retired_count.store(kept, std::memory_order_relaxed);
  }

  /// Handle hand-back hook: drop the slot's protections and try to
  /// drain its list. Leftovers stay parked on the slot — the next
  /// handle recycled onto it inherits them, and the destructor is the
  /// backstop — so nothing leaks and nothing is freed early.
  void quiesce(unsigned slot) {
    for (unsigned j = 0; j < kHazardsPerSlot; ++j) clear_hazard(slot, j);
    if (!state_[slot].retired.empty()) scan(slot);
  }

  unsigned threshold() const { return threshold_; }

  Stats stats() const {
    Stats out;
    for (unsigned i = 0; i < slots_; ++i) {
      out.retired_nodes +=
          state_[i].retired_count.load(std::memory_order_relaxed);
      out.reclaimed_nodes +=
          state_[i].reclaimed.load(std::memory_order_relaxed);
      out.retire_calls +=
          state_[i].retire_calls.load(std::memory_order_relaxed);
      out.scans += state_[i].scans.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  struct Retired {
    void* p;
    void (*del)(void*, void*);
    void* ctx;
  };

  struct alignas(detail::kNoFalseSharing) SlotState {
    std::atomic<void*> hp[kHazardsPerSlot] = {};
    // Owner-only (the slot holder; recycled with the slot). The
    // atomic mirrors below exist so stats()/tests can read counts
    // from other threads without touching the vector.
    std::vector<Retired> retired;
    std::atomic<std::uint64_t> retired_count{0};
    std::atomic<std::uint64_t> reclaimed{0};
    std::atomic<std::uint64_t> retire_calls{0};
    std::atomic<std::uint64_t> scans{0};
  };

  const unsigned slots_;
  const unsigned threshold_;
  SlotState* state_;
};

}  // namespace wcq::smr
