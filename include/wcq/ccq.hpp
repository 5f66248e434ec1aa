// CCQ — the CAS2-based circular queue (Nikolaev, DISC 2019, §1;
// wCQ's Figure 11 family plots). Exactly SCQ's state machine —
// threshold, safe bit, catchup, Cache_Remap — but the entry is a
// {meta, idx} SplitEntry pair mutated by double-width CAS: the index
// is a full 64-bit word instead of being packed beside the cycle.
// CCQ is what you build when indices don't fit the cycle word; SCQ's
// contribution is showing the packing makes CAS2 unnecessary. Keeping
// both in the lineup prices that difference: same protocol, twice the
// entry footprint, and every mutation pays cmpxchg16b.
//
// Composition: CcqRing is the ring kernel (scq_ring.hpp) instantiated
// over ring::SplitEntry, whose codec (ring_entry.hpp) packs meta as
// [cycle | is_safe (bit 0)] and uses an all-ones idx as BOT. It is
// built with native CAS2, like the kernel's other default rings.
#pragma once

#include "wcq/scq_ring.hpp"
#include "wcq/two_ring.hpp"

namespace wcq {

// CCQ as a bounded MPMC queue of 64-bit values: the two-ring queue
// over CAS2 rings.
using CcqQueue = TwoRingQueue<CcqRing>;

}  // namespace wcq
