// FAA baseline: the unbounded fetch-and-add array queue (the "FAA"
// series of the paper's figures), built as Ramalhete and Correia's
// FAAArrayQueue: a Michael-Scott list (wcq/segment_list.hpp) of FAA
// arrays. Each segment has its own enqueue and dequeue tickets.
// Enqueue FAAs the segment's enq ticket and CASes its cell from EMPTY
// to the value; dequeue FAAs deq and exchanges TAKEN into its cell,
// which makes a late enqueuer of that ticket retry. A segment refuses
// once its tickets run past its cells, and the list appends a fresh
// one; drained segments retire through the list's hazard pointers.
// The queue is still unbounded at any instant the producers outrun
// the consumers (that is the Figure 10 contrast with wCQ/SCQ's static
// rings), but consumed segments do not pile up until destruction.
//
// Values ~0 and ~0-1 are reserved as sentinels and refused by
// try_push (boxed slot_codec callers are unaffected: pointers never
// collide with them).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "wcq/detail.hpp"
#include "wcq/options.hpp"
#include "wcq/segment_list.hpp"

namespace wcq {

// One FAA array of 2^10 cells, the segment type of FaaQueue. Its size
// is fixed rather than read from options::order: a 2^16-cell segment
// first-touches 512 KiB per turnover, and that page-fault cost shows
// as lost pairwise throughput and a tenfold Fig. 10 peak.
class FaaSegment {
 public:
  static constexpr std::uint64_t kReserved = ~std::uint64_t{0} - 1;

  explicit FaaSegment(const options&) {}

  FaaSegment(const FaaSegment&) = delete;
  FaaSegment& operator=(const FaaSegment&) = delete;

  // False once the ticket is at or past the segment's end.
  bool push(std::uint64_t v) {
    for (;;) {
      const std::uint64_t t = enq_.fetch_add(1, std::memory_order_seq_cst);
      if (t >= kCells) return false;
      if (deposit(t, v)) return true;
      // A dequeuer poisoned the cell first; take the next ticket.
    }
  }

  // One FAA claims a run of tickets; vs land on them in order up to
  // the segment's end or the first poisoned cell. The run's later
  // tickets stay EMPTY for dequeuers to poison. Returns the count
  // that landed.
  std::size_t push_n(const std::uint64_t* vs, std::size_t n) {
    const std::uint64_t t0 = enq_.fetch_add(n, std::memory_order_seq_cst);
    std::size_t done = 0;
    while (done < n && t0 + done < kCells && deposit(t0 + done, vs[done])) {
      ++done;
    }
    return done;
  }

  bool pop(std::uint64_t* v) { return pop_n(v, 1) == 1; }

  // One FAA claims up to n tickets, bounded by the issued enqueue
  // tickets so an empty segment costs none, and takes their cells in
  // ticket order. Zero iff the segment looked empty.
  std::size_t pop_n(std::uint64_t* out, std::size_t n) {
    for (;;) {
      const std::uint64_t d = deq_.load(std::memory_order_seq_cst);
      const std::uint64_t e =
          std::min(enq_.load(std::memory_order_seq_cst), kCells);
      if (d >= e) return 0;
      const std::uint64_t k = std::min<std::uint64_t>(n, e - d);
      const std::uint64_t t0 = deq_.fetch_add(k, std::memory_order_seq_cst);
      std::size_t got = 0;
      for (std::uint64_t t = t0; t < t0 + k && t < kCells; ++t) {
        if (take(t, &out[got])) ++got;
      }
      if (got > 0) return got;
    }
  }

  // Burns dequeue tickets up to the segment's end, poisoning every
  // cell not yet filled, so false proves no push can still land here.
  bool pop_last(std::uint64_t* v) {
    for (;;) {
      const std::uint64_t t = deq_.fetch_add(1, std::memory_order_seq_cst);
      if (t >= kCells) return false;
      if (take(t, v)) return true;
    }
  }

 private:
  static constexpr std::uint64_t kCells = std::uint64_t{1} << 10;
  // A cell holds ~v, so value-initialising cells_ (one memset of
  // zeros) empties it; the two reserved values are the two sentinels.
  static constexpr std::uint64_t kEmpty = 0;           // ~(~0)
  static constexpr std::uint64_t kTaken = ~kReserved;  // 1

  bool deposit(std::uint64_t t, std::uint64_t v) {
    std::uint64_t expected = kEmpty;
    return cells_[t].compare_exchange_strong(expected, ~v,
                                             std::memory_order_release,
                                             std::memory_order_relaxed);
  }

  // Ticket t's value, or TAKEN poisoned into its cell so the late
  // enqueuer of t retries on another ticket.
  bool take(std::uint64_t t, std::uint64_t* v) {
    const std::uint64_t c =
        cells_[t].exchange(kTaken, std::memory_order_acq_rel);
    if (c == kEmpty) return false;
    *v = ~c;
    return true;
  }

  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> deq_{0};
  alignas(detail::kNoFalseSharing) std::atomic<std::uint64_t> enq_{0};
  alignas(detail::kNoFalseSharing)
      std::atomic<std::uint64_t> cells_[kCells] = {};
};

using FaaQueue = SegmentList<FaaSegment>;

}  // namespace wcq
