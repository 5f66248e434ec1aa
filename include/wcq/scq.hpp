// SCQ as a bounded MPMC queue of 64-bit values: the two-ring queue
// (wcq/two_ring.hpp) over plain SCQ rings.
#pragma once

#include "wcq/scq_ring.hpp"
#include "wcq/two_ring.hpp"

namespace wcq {

using ScqQueue = TwoRingQueue<ScqRing>;

}  // namespace wcq
