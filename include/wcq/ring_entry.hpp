// Entry codecs — the storage layer of the ring kernel. A ring variant
// picks the entry shape its protocol needs, and the kernel touches an
// entry only through its codec: everything above (cycle arithmetic,
// threshold, helping) is agnostic to it.
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
// Every codec supplies the same surface, resolved at compile time:
//
//   Snap                       what one load() sees: the packed word, or
//                              the {meta, idx} pair
//   init(g)                    store the empty entry of cycle 0
//   init_to(s)                 store snapshot `s` relaxed (fresh rings
//                              only: construction and ScqRingT::fill)
//   load()                     acquire snapshot of the entry
//   cycle/safe/index/is_bot    decode a snapshot
//   pack(g, cycle, safe, idx)  encode one
//   cas(expected, desired, portable)
//                              the entry CAS; noted words expect note
//                              == 0, which is what freezes a claimed
//                              entry. `portable` picks the __atomic CAS2
//                              over cmpxchg16b for noted entries (wCQ's
//                              portable build); the others ignore it.
//   consume(g, seen, portable) index -> BOT keeping cycle and safe bit;
//                              false when the entry moved under us
//
// The two-word codecs are accessed both as two separate
// std::atomic<uint64_t> members and, through reinterpret_cast, as one
// detail::Pair for the 16-byte CAS — see the aliasing contract above
// detail::Pair. A torn two-load snapshot is benign: every mutation is
// a CAS2 expecting the full pair, which a phantom snapshot fails. The
// static_asserts here pin the layout that contract relies on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "wcq/detail.hpp"
#include "wcq/ring_math.hpp"

namespace wcq::ring {

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

/// Decoding shared by the entries whose snapshot is one Geometry-packed
/// word.
struct PackedWord {
  using Snap = std::uint64_t;

  static constexpr std::uint64_t cycle(const Geometry& g, Snap e) {
    return g.cycle_of_entry(e);
  }
  static constexpr bool safe(const Geometry& g, Snap e) { return g.is_safe(e); }
  static constexpr std::uint64_t index(const Geometry& g, Snap e) {
    return g.idx_of_entry(e);
  }
  static constexpr bool is_bot(const Geometry& g, Snap e) {
    return g.idx_of_entry(e) == g.bot();
  }
  static constexpr Snap pack(const Geometry& g, std::uint64_t cycle, bool safe,
                             std::uint64_t idx) {
    return g.pack(cycle, safe, idx);
  }
};

struct PlainEntry : PackedWord {
  std::atomic<std::uint64_t> word;

  void init(const Geometry& g) { init_to(g.pack(0, true, g.bot())); }
  void init_to(Snap s) { word.store(s, std::memory_order_relaxed); }
  Snap load() const { return word.load(std::memory_order_acquire); }
  bool cas(Snap expected, Snap desired, bool /*portable*/) {
    return word.compare_exchange_strong(expected, desired,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }
  // SCQ's consume: only the holder of this position's head ticket gets
  // here, so an unconditional OR of BOT cannot clobber anyone.
  bool consume(const Geometry& g, Snap /*seen*/, bool /*portable*/) {
    word.fetch_or(g.bot(), std::memory_order_acq_rel);
    return true;
  }
};

struct alignas(16) NotedEntry : PackedWord {
  std::atomic<std::uint64_t> word;
  std::atomic<std::uint64_t> note;

  void init(const Geometry& g) { init_to(g.pack(0, true, g.bot())); }
  void init_to(Snap s) {
    word.store(s, std::memory_order_relaxed);
    note.store(0, std::memory_order_relaxed);
  }
  Snap load() const { return word.load(std::memory_order_acquire); }
  bool cas(Snap expected, Snap desired, bool portable) {
    return pair_cas(this, {expected, 0}, {desired, 0}, portable);
  }
  bool consume(const Geometry& g, Snap seen, bool portable) {
    return cas(seen, seen | g.bot(), portable);
  }
};
static_assert(sizeof(NotedEntry) == sizeof(detail::Pair),
              "NotedEntry must be layout-interchangeable with Pair");
static_assert(offsetof(NotedEntry, word) == offsetof(detail::Pair, word) &&
              offsetof(NotedEntry, note) == offsetof(detail::Pair, note));

struct alignas(16) SplitEntry {
  struct Snap {
    std::uint64_t meta;
    std::uint64_t idx;
  };
  static constexpr std::uint64_t kBot = ~std::uint64_t{0};

  std::atomic<std::uint64_t> meta;  // [cycle | is_safe (bit 0)]
  std::atomic<std::uint64_t> idx;   // full-word index; all-ones = BOT

  static constexpr std::uint64_t cycle(const Geometry&, Snap e) {
    return e.meta >> 1;
  }
  static constexpr bool safe(const Geometry&, Snap e) {
    return (e.meta & 1u) != 0;
  }
  static constexpr std::uint64_t index(const Geometry&, Snap e) {
    return e.idx;
  }
  static constexpr bool is_bot(const Geometry&, Snap e) {
    return e.idx == kBot;
  }
  static constexpr Snap pack(const Geometry&, std::uint64_t cycle, bool safe,
                             std::uint64_t idx) {
    return {(cycle << 1) | static_cast<std::uint64_t>(safe), idx};
  }

  void init(const Geometry& g) { init_to(pack(g, 0, true, kBot)); }
  void init_to(Snap s) {
    meta.store(s.meta, std::memory_order_relaxed);
    idx.store(s.idx, std::memory_order_relaxed);
  }
  Snap load() const {
    return {meta.load(std::memory_order_acquire),
            idx.load(std::memory_order_acquire)};
  }
  // Always native CAS2: a runtime `portable` branch would put the
  // portable path's libatomic call, and the stack spills it forces,
  // into CCQ's hot loop. The portable build is wCQ's, not CCQ's.
  bool cas(Snap expected, Snap desired, bool /*portable*/) {
    return pair_cas(this, {expected.meta, expected.idx},
                    {desired.meta, desired.idx}, false);
  }
  bool consume(const Geometry&, Snap seen, bool /*portable*/) {
    return cas(seen, {seen.meta, kBot}, false);
  }
};
static_assert(sizeof(SplitEntry) == sizeof(detail::Pair),
              "SplitEntry must be layout-interchangeable with Pair");
static_assert(offsetof(SplitEntry, meta) == offsetof(detail::Pair, word) &&
              offsetof(SplitEntry, idx) == offsetof(detail::Pair, note));

}  // namespace wcq::ring
