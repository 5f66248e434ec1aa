// Entry codecs — the storage layer of the ring kernel. A ring variant
// picks the entry shape its protocol needs; everything above (cycle
// arithmetic, threshold, helping) is agnostic to it:
//
//   PlainEntry   one 64-bit packed word [cycle | safe | index] — SCQ,
//                NCQ, and the LSCQ segment rings.
//   NotedEntry   {word, note} mutated together by CAS2 — the wCQ ring.
//                The note word parks revocable claims / committed
//                results of the cooperative slow path.
//   SplitEntry   {meta, idx} mutated together by CAS2 — CCQ, where the
//                index is a full 64-bit word instead of being packed
//                into the cycle word (meta = [cycle | safe]). This is
//                the variant that shows what SCQ's packing buys: CCQ
//                must pay double-width CAS for the same state machine.
//
// The two-word codecs are accessed both as two separate
// std::atomic<uint64_t> members and, through reinterpret_cast, as one
// detail::Pair for the 16-byte CAS — see the aliasing contract above
// detail::Pair. The static_asserts here pin the layout that contract
// relies on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "wcq/detail.hpp"

namespace wcq::ring {

struct PlainEntry {
  std::atomic<std::uint64_t> word;
};

struct alignas(16) NotedEntry {
  std::atomic<std::uint64_t> word;
  std::atomic<std::uint64_t> note;
};
static_assert(sizeof(NotedEntry) == sizeof(detail::Pair),
              "NotedEntry must be layout-interchangeable with Pair");
static_assert(offsetof(NotedEntry, word) == offsetof(detail::Pair, word) &&
              offsetof(NotedEntry, note) == offsetof(detail::Pair, note));

struct alignas(16) SplitEntry {
  std::atomic<std::uint64_t> meta;  // [cycle | is_safe (bit 0)]
  std::atomic<std::uint64_t> idx;   // full-word index; all-ones = BOT
};
static_assert(sizeof(SplitEntry) == sizeof(detail::Pair),
              "SplitEntry must be layout-interchangeable with Pair");
static_assert(offsetof(SplitEntry, meta) == offsetof(detail::Pair, word) &&
              offsetof(SplitEntry, idx) == offsetof(detail::Pair, note));

/// CAS2 over a two-word entry. `portable` selects the __atomic builtin
/// path (the paper's Section 4 portable-build posture, and the only
/// path TSan can instrument) over native cmpxchg16b.
template <typename TwoWordEntry>
inline bool pair_cas(TwoWordEntry* e, detail::Pair expected,
                     detail::Pair desired, bool portable) {
  detail::Pair* addr = reinterpret_cast<detail::Pair*>(e);
  return portable ? detail::cas2_portable(addr, &expected, desired)
                  : detail::cas2(addr, &expected, desired);
}

}  // namespace wcq::ring
