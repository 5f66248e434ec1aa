// The ring kernel: SCQ's bounded FIFO of small indices (Nikolaev,
// DISC 2019) as a composition of the layer headers —
//
//   ring_math.hpp     Geometry (cycle/index packing) + Remap
//                     (Cache_Remap / identity position permutation)
//   ring_entry.hpp    entry codecs: snapshot, decode, pack, entry CAS
//                     and consume for each entry layout
//   ring_policy.hpp   empty detection (ScqThreshold)
//   ring_noted.hpp    the wCQ helping/note layer — out-of-line
//                     definitions of the members declared here under
//                     requires(Noted); only wcq.hpp includes it
//
// A ring of 2n entries backs a queue of capacity n; Head/Tail are
// FAA'd position counters whose quotient by the ring size is the
// entry's expected "cycle". The `threshold` counter gives dequeuers a
// constant-time empty exit, and Cache_Remap spreads consecutive
// positions across cache lines. A ring starts empty; fill() starts it
// full instead (a two-ring queue's free-index ring) by writing the
// state n enqueues would leave — entries, Tail, armed threshold — as
// plain stores, not n FAA + entry-CAS round trips.
//
// ScqRingT<Entry, Finalizable> touches entries only through the
// Entry codec, so one state machine serves every entry layout (all
// resolved at compile time):
//
//   ScqRingT<PlainEntry>        ("ScqRing")  64-bit entries, lock-free
//       — plain SCQ, and the building block of ScqQueue's aq/fq pair.
//   ScqRingT<NotedEntry>        ("WcqRing")  128-bit {word, note}
//       entries mutated by CAS2 — the wCQ ring (SPAA 2022, Figures
//       4-7). The second word parks *notes*: revocable claims and
//       committed results of the cooperative slow path, so that any
//       number of helpers can advance one stalled operation and the
//       commit still happens exactly once (the CAS2 that flips a claim
//       note to its phase-B form is the only way the entry word
//       changes while claimed).
//   ScqRingT<SplitEntry>        ("CcqRing")  128-bit {meta, idx}
//       entries mutated by CAS2 — CCQ (ccq.hpp): the same protocol
//       with the index in a word of its own.
//   ScqRingT<PlainEntry, true>  ("FinalScqRing")  plain SCQ plus a
//       closed bit in Tail: once close() is called no new enqueue
//       ticket is issued, and drain_idx() sweeps the surviving tickets
//       so an LSCQ segment can be proven sterile before it is retired
//       to SMR. For non-finalizable instantiations every closed-bit
//       branch folds away and the generated code is the plain ring's.
//
// The constructor's third argument, `portable`, only matters to noted
// entries: it picks the __atomic CAS2 over cmpxchg16b for wCQ's
// portable build (WcqPortableQueue sets it). Plain rings have no CAS2,
// and CCQ's split entries always use native CAS2.
//
// Packed word layout (64 bits):   [ cycle | is_safe (1 bit) | index ]
// where index occupies order+1 bits and all-ones means "empty" (BOT).
//
// Slow-path lifecycle of one request (RingRequest, one per thread):
//   Pending   helpers scan from req.pos; an eligible entry is *claimed*
//             with a phase-A note (word unchanged, now frozen: every
//             word mutation is a CAS2 expecting note == 0).
//   Phase2    the unique winner of the Pending->Phase2 ctl CAS names
//             the committing slot j; claims parked anywhere else are
//             revoked. Any helper then *commits* at j: one CAS2 flips
//             the phase-A note to phase-B and applies the word change
//             (install for enqueue, consume for dequeue).
//   DoneOk    any helper seeing the phase-B note delivers the result
//             (dequeue: the index rides in the note) and finalizes the
//             ctl; the note is then retired by one CAS2.
//   DoneEmpty dequeue-only: the threshold ran out first. Outstanding
//             phase-A claims are revoked lazily by whoever touches
//             them — a claim never changed the entry word, so revoking
//             is always safe, even for notes of long-dead requests.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/ring_entry.hpp"
#include "wcq/ring_math.hpp"
#include "wcq/ring_policy.hpp"

namespace wcq {

// Published state of one in-flight slow-path ring operation. Owned by
// one thread record, read and CAS-advanced by every helper.
struct alignas(detail::kNoFalseSharing) RingRequest {
  std::atomic<std::uint64_t> ctl{0};     // packed seq/j/ring/kind/state
  std::atomic<std::uint64_t> arg{0};     // enqueue: index to insert
  std::atomic<std::uint64_t> result{0};  // dequeue: index obtained
  std::atomic<std::uint64_t> pos{0};     // shared scan position; dequeue
                                         // advances it in lockstep with
                                         // the global Head ticket stream
};

template <typename Entry, bool Finalizable = false>
class ScqRingT {
  // Segment finalization belongs to plain rings inside LSCQ; the noted
  // ring is the queue-level wCQ ring and CCQ is a whole queue.
  static_assert(!Finalizable || std::is_same_v<Entry, ring::PlainEntry>);

  // The wCQ helping layer (ring_noted.hpp) rides on noted entries.
  static constexpr bool Noted = std::is_same_v<Entry, ring::NotedEntry>;

 public:
  enum Result : int {
    kOk = 0,
    kEmpty = 1,      // definitive: queue observed empty (threshold spent)
    kContended = 2,  // patience exhausted; retry or go to a slow path
    kClosed = 3,     // Finalizable only: ring closed, no ticket issued
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  // Capacity is 2^order indices; the ring itself has 2^(order+1)
  // entries. `remap` toggles Cache_Remap. `portable` makes noted
  // entries use the __atomic CAS2 instead of cmpxchg16b (the paper's
  // Section 4 portable build); other entries ignore it. `reqs` is
  // the queue's RingRequest array, which notes reference by slot;
  // required iff Noted. `is_fq` is the ring's identity bit in request
  // ctl words (0 = free-index ring aq, 1 = value ring fq), so helpers
  // never step a request against the wrong ring.
  ScqRingT(unsigned order, bool remap, bool portable = false,
           RingRequest* reqs = nullptr, bool is_fq = false)
      : geo_(order),
        remap_(remap ? ring::Remap::cache(geo_, kLineBits)
                     : ring::Remap::identity(geo_)),
        portable_(portable),
        reqs_(reqs),
        is_fq_(is_fq),
        threshold_(geo_) {
    entries_ = static_cast<Entry*>(
        mem::alloc(geo_.ring_size() * sizeof(Entry)));
    for (std::uint64_t j = 0; j < geo_.ring_size(); ++j) {
      entries_[j].init(geo_);
    }
    // Start positions at ring_size so live cycles begin at 1 and are
    // always distinguishable from the zero-initialised entries.
    head_.store(geo_.ring_size(), std::memory_order_relaxed);
    tail_.store(geo_.ring_size(), std::memory_order_relaxed);
  }

  ~ScqRingT() { mem::free(entries_, geo_.ring_size() * sizeof(Entry)); }

  ScqRingT(const ScqRingT&) = delete;
  ScqRingT& operator=(const ScqRingT&) = delete;

  std::uint64_t capacity() const { return geo_.capacity(); }

  // Start a fresh ring full: write directly the state that enqueuing
  // the indices 0, 1, ..., capacity() - 1 in order would leave — index
  // i at position ring_size + i (cycle 1, safe), Tail at ring_size +
  // capacity, Head untouched, threshold armed — with relaxed stores
  // and no RMW. Fresh rings only, with no concurrent access: whatever
  // publishes the queue to other threads orders these stores.
  void fill() {
    const std::uint64_t t0 = geo_.ring_size();
    assert(head_.load(std::memory_order_relaxed) == t0 &&
           tail_.load(std::memory_order_relaxed) == t0);
    for (std::uint64_t i = 0; i < geo_.capacity(); ++i) {
      entries_[remap_.map(t0 + i)].init_to(
          Entry::pack(geo_, geo_.cycle_of_pos(t0 + i), true, i));
    }
    tail_.store(t0 + geo_.capacity(), std::memory_order_relaxed);
    threshold_.arm();
  }

  std::uint64_t head() const { return head_.load(std::memory_order_seq_cst); }
  std::uint64_t tail() const {
    return tail_pos(tail_.load(std::memory_order_seq_cst));
  }

  // Read-only empty probe: no RMW, no store. True when the threshold
  // is spent or Head has caught up with Tail — the two exits a
  // dequeue would take. Head is loaded first and both only grow, so a
  // true answer held at the instant of the Tail load. It can miss a
  // value whose install has not yet moved Tail (a wCQ slow-path
  // commit bumps Tail after installing), exactly as the dequeue's own
  // `tail <= h + 1` check does.
  bool looks_empty() const {
    if (threshold_.spent()) return true;
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h >= tail_pos(tail_.load(std::memory_order_acquire));
  }

  // Enqueue an index in [0, capacity). As long as at most `capacity`
  // indices are live the ring always has room, so the only non-kOk
  // outcome is kContended when `max_iters` attempts are spent (or
  // kClosed once a finalizable ring is closed).
  Result enqueue_idx(std::uint64_t eidx, std::uint64_t max_iters) {
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      if constexpr (Finalizable) {
        // Cheap pre-check; the FAA below is the authoritative one.
        if (tail_.load(std::memory_order_seq_cst) & kClosedBit) {
          return kClosed;
        }
      }
      const std::uint64_t t = tail_.fetch_add(1, std::memory_order_seq_cst);
      if constexpr (Finalizable) {
        if (t & kClosedBit) return kClosed;
      }
      const std::uint64_t tcycle = geo_.cycle_of_pos(t);
      const std::uint64_t j = remap_.map(t);
      for (;;) {
        const Snap e = entries_[j].load();
        if (Entry::cycle(geo_, e) < tcycle && Entry::is_bot(geo_, e) &&
            (Entry::safe(geo_, e) ||
             head_.load(std::memory_order_seq_cst) <= t)) {
          if (!word_cas(j, e, Entry::pack(geo_, tcycle, true, eidx))) {
            help_parked(j);
            continue;  // entry changed under us; re-evaluate
          }
          threshold_.arm();
          return kOk;
        }
        break;  // position unusable, take the next one
      }
    }
    return kContended;
  }

  // Dequeue an index. kEmpty is definitive (threshold exhausted or
  // tail caught up); kContended means patience ran out first.
  Result dequeue_idx(std::uint64_t* out, std::uint64_t max_iters) {
    return dequeue<false>(out, max_iters);
  }

  // ---- segment finalization (Finalizable only) ----------------------

  // Close the ring: every enqueue ticket issued from now on aborts
  // with kClosed before touching an entry. Idempotent.
  void close()
    requires(Finalizable)
  {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
  }

  bool closed() const
    requires(Finalizable)
  {
    return (tail_.load(std::memory_order_seq_cst) & kClosedBit) != 0;
  }

  // Post-close sweep: the dequeue loop with the threshold bypassed (it
  // may be spent while pre-close installs are in flight), burning head
  // tickets past every position such an install could still land at.
  // Advancing or poisoning an entry is what stops a pre-close ticket's
  // install: its CAS can no longer succeed. kOk hands out a surviving
  // value; kEmpty is a *sterility* certificate: head has met tail,
  // every pre-close ticket's position was consumed or poisoned, and no
  // install can land here anymore — the ring may be retired. Callers
  // loop on kOk.
  Result drain_idx(std::uint64_t* out)
    requires(Finalizable)
  {
    return dequeue<true>(out, kUnbounded);
  }

  // ---- cooperative slow path (Noted only) ---------------------------
  // Defined out-of-line in ring_noted.hpp (included by wcq.hpp): drive
  // `r`'s published operation until its state leaves {Pending, Phase2}.
  // The owner and any number of helpers run this concurrently; every
  // step is a CAS on shared state, so all of them make progress on the
  // *same* request — nobody claims it exclusively.
  void help_slow(RingRequest* r)
    requires(Noted);

 private:
  using Snap = typename Entry::Snap;

  static constexpr unsigned kLineBits =
      detail::log2_pow2(detail::kCacheLine / sizeof(Entry));

  // Bit 63 of tail_ is the Finalizable closed flag; positions are the
  // low 63 bits. Non-finalizable rings never set it, and tail_pos is
  // the identity for them.
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  static constexpr std::uint64_t tail_pos(std::uint64_t t) {
    if constexpr (Finalizable) {
      return t & ~kClosedBit;
    } else {
      return t;
    }
  }

  // The one dequeue loop. Drain (the post-close sweep) skips every
  // threshold step: the fast empty exit and both spends.
  template <bool Drain>
  Result dequeue(std::uint64_t* out, std::uint64_t max_iters) {
    if (!Drain && threshold_.spent()) {
      return kEmpty;  // the paper's fast empty exit (Figure 11a)
    }
    for (std::uint64_t iter = 0; iter < max_iters; ++iter) {
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint64_t hcycle = geo_.cycle_of_pos(h);
      const std::uint64_t j = remap_.map(h);
      bool consumed_by_peer = false;
      for (;;) {
        const Snap e = entries_[j].load();
        const std::uint64_t ecycle = Entry::cycle(geo_, e);
        if (ecycle == hcycle && !Entry::is_bot(geo_, e)) {
          if (!entries_[j].consume(geo_, e, portable_)) {
            // Noted: claimed by a slow-path request sharing this
            // position. Help it through; the value goes to the request
            // and the re-read will see a consumed entry (our ticket is
            // spent).
            help_parked(j);
            continue;
          }
          *out = Entry::index(geo_, e);
          return kOk;
        }
        if (ecycle < hcycle) {
          // Either advance an empty entry's cycle or mark a lagging
          // value unsafe so a slow enqueuer cannot resurrect it.
          const Snap fresh =
              Entry::is_bot(geo_, e)
                  ? Entry::pack(geo_, hcycle, Entry::safe(geo_, e),
                                Entry::index(geo_, e))
                  : Entry::pack(geo_, ecycle, false, Entry::index(geo_, e));
          if (!word_cas(j, e, fresh)) {
            help_parked(j);
            continue;
          }
        }
        // ecycle == hcycle with BOT and ecycle > hcycle both land
        // here. A cleared safe bit at exactly our cycle is the slow
        // path's consume marker: our ticket's value went to a request
        // (which never held a head ticket for it), so the position
        // *did* yield a value and must not be accounted as failed —
        // in SCQ a value-yielding ticket never decrements threshold.
        if constexpr (Noted) {
          consumed_by_peer = ecycle == hcycle && Entry::is_bot(geo_, e) &&
                             !Entry::safe(geo_, e);
        }
        break;
      }
      const std::uint64_t t = tail_.load(std::memory_order_seq_cst);
      if (tail_pos(t) <= h + 1) {
        catchup(t, h + 1);
        if (!Drain) threshold_.spend();
        return kEmpty;
      }
      if (!Drain && !consumed_by_peer && threshold_.spend()) {
        return kEmpty;
      }
    }
    return kContended;
  }

  // The entry CAS. In the noted ring every plain word mutation expects
  // note == 0, which is what freezes a claimed entry.
  bool word_cas(std::uint64_t j, Snap expected, Snap desired) {
    return entries_[j].cas(expected, desired, portable_);
  }

  bool pair_cas(std::uint64_t j, detail::Pair expected, detail::Pair desired)
    requires(Noted)
  {
    return ring::pair_cas(&entries_[j], expected, desired, portable_);
  }

  // After a failed entry CAS: a parked note freezes a noted entry's
  // word, so resolve it before the caller retries. Nothing to do for
  // other entries.
  void help_parked(std::uint64_t j) {
    if constexpr (Noted) {
      const std::uint64_t n = entries_[j].note.load(std::memory_order_acquire);
      if (n != 0) help_note(j, n);
    }
  }

  void catchup(std::uint64_t t, std::uint64_t h) {
    // The CAS keeps the closed bit exactly as read; only the position
    // half of tail_ moves.
    while (!tail_.compare_exchange_weak(
        t, Finalizable ? (h | (t & kClosedBit)) : h,
        std::memory_order_seq_cst, std::memory_order_seq_cst)) {
      h = head_.load(std::memory_order_seq_cst);
      t = tail_.load(std::memory_order_seq_cst);
      if (tail_pos(t) >= h) break;
    }
  }

  // CAS-max a position counter forward; bounded because every failure
  // means someone else advanced it.
  static void bump(std::atomic<std::uint64_t>& ctr, std::uint64_t target) {
    std::uint64_t c = ctr.load(std::memory_order_seq_cst);
    while (c < target &&
           !ctr.compare_exchange_weak(c, target, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
    }
  }

  // ---- note resolution (Noted only) ---------------------------------
  // Declared here, defined out-of-line in ring_noted.hpp — the helping
  // layer only the wCQ instantiation pulls in.

  std::uint64_t slot_of(const RingRequest* r) const {
    return static_cast<std::uint64_t>(r - reqs_);
  }

  void help_note(std::uint64_t j, std::uint64_t n)
    requires(Noted);
  void commit(RingRequest* r, std::uint64_t j, std::uint64_t n,
              std::uint64_t w)
    requires(Noted);
  void finalize(RingRequest* r, std::uint64_t c, std::uint64_t j,
                std::uint64_t n)
    requires(Noted);
  void step_dequeue(RingRequest* r, std::uint64_t c)
    requires(Noted);
  void step_enqueue(RingRequest* r, std::uint64_t c)
    requires(Noted);
  bool advance_pos(RingRequest* r, std::uint64_t p, std::uint64_t target)
    requires(Noted);
  void try_finalize_empty(RingRequest* r, std::uint64_t c)
    requires(Noted);

  const ring::Geometry geo_;
  const ring::Remap remap_;
  const bool portable_;
  RingRequest* const reqs_;
  const bool is_fq_;

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> head_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> tail_{0};
  alignas(detail::kNoFalseSharing) ring::ScqThreshold threshold_;
  alignas(detail::kNoFalseSharing) Entry* entries_ = nullptr;
};

using ScqRing = ScqRingT<ring::PlainEntry>;
using WcqRing = ScqRingT<ring::NotedEntry>;
// LSCQ's segment value ring: plain SCQ plus close()/drain_idx().
using FinalScqRing = ScqRingT<ring::PlainEntry, true>;
// CCQ's ring: SCQ's state machine over CAS2 {meta, idx} pairs.
using CcqRing = ScqRingT<ring::SplitEntry>;

}  // namespace wcq
