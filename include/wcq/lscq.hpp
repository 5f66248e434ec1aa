// LSCQ — the unbounded queue of the SCQ paper (Nikolaev, DISC 2019,
// §5) and the strongest lock-free contender in wCQ's Figures 10-12: a
// Michael-Scott list (wcq/segment_list.hpp) whose nodes are whole SCQ
// segments (two-ring bounded queues, wcq/two_ring.hpp). Values live in
// per-segment data arrays, so — unlike LCRQ/FAA — no value bit pattern
// is reserved: every uint64_t is storable.
//
// A segment refuses a push when its free-index ring is exhausted or
// its value ring is closed. Once a successor exists, the last pop
// finalizes it:
//
//   1. fq.close() — Tail's bit 63 — makes every new enqueue ticket
//      abort with kClosed before touching an entry.
//   2. fq.drain_idx() burns head tickets past every position a
//      pre-close ticket could still install at (SCQ's threshold-spent
//      kEmpty does NOT imply head >= tail, so an in-flight pre-close
//      enqueue could otherwise install into a retired segment and the
//      value would vanish). A drained value is simply this dequeue's
//      result; kEmpty from drain is a sterility certificate.
//
// A pusher whose fq enqueue hits kClosed abandons its free index in
// the dying segment (the value was never visible, the index dies with
// the segment's allocation) and retries on the current list tail.
#pragma once

#include "wcq/scq_ring.hpp"
#include "wcq/segment_list.hpp"
#include "wcq/two_ring.hpp"

namespace wcq {

using LscqQueue = SegmentList<TwoRingQueue<ScqRing, FinalScqRing>>;

}  // namespace wcq
