/// \file
/// `wcq::sharded<T, Backend>` — a queue-of-queues scaling layer.
///
/// One FAA-ticketed ring is the contention wall at high core counts:
/// every operation, from every core, meets at the same head/tail
/// cache lines. `ShardedQueue<Backend>` puts an array of independent
/// backend instances (shards) behind the slot-level
/// `concepts::Backend` surface, and `wcq::sharded<T, Backend>` is just
/// the typed facade over it (`queue<T, ShardedQueue<Backend>>`), so
/// the codec, boxed teardown and batch chunking are the facade's own
/// and it drops into every test, bench, and adapter unchanged — the
/// scaling decision becomes a configuration knob (`options::shards`),
/// not an API fork.
///
/// ## Ordering contract (read this before depending on FIFO)
///
/// Each shard is a FIFO queue; *cross-shard* ordering is relaxed.
/// Precisely: values a single handle pushes into the same shard are
/// dequeued from that shard in push order, but two values a producer
/// spreads over different shards may be observed by a consumer in
/// either order. Global FIFO: use `shards(1)` (the plain queue).
///
/// ## Pickers (`options::shard_policy`)
///
///  - `round_robin` (default): a per-handle cursor, advanced on every
///    successful op. Push and pop cursors of one handle start aligned,
///    so a single-threaded user still observes exact FIFO. On refusal
///    (shard full/empty) the op scans the remaining shards before
///    giving up, leaving the cursor untouched so the alignment
///    survives full/empty episodes.
///  - `sticky`: the handle has a home shard (its id modulo shards) per
///    direction and stays there — the zero-interference layout when
///    threads <= shards — rebalancing only when the home refuses:
///    push moves home on full, pop moves home on empty.
///
/// ## Empty scan
///
/// A pop makes one real `try_pop` on the cursor's shard. Only when
/// that finds the shard empty does it walk the other shards, and
/// there it pops only a shard whose backend probe (`looks_empty()`:
/// wCQ's read-only threshold and Head/Tail check) does not say empty.
/// Backends without a probe (all but the wCQ ones) are popped as
/// before. A fully failed scan thus costs one empty pop plus k-1
/// probes instead of k empty pops (each an FAA on Head, an entry CAS,
/// a catchup CAS on Tail and a threshold spend). The cursor's shard
/// gets its real pop without a probe in front, because loading its
/// Head and Tail just before the FAA adds a coherence miss to every
/// successful pop.
///
/// Cross-shard emptiness was already relaxed (a value pushed into a
/// shard the scan has passed is missed), and the probe keeps it so:
/// on a quiescent queue a probe that says empty means the shard's pop
/// would say so too, so no value is hidden. The probe can miss a
/// value in the short window where a wCQ slow-path commit has
/// installed it but not yet moved Tail, a window in which the shard's
/// own pop reports empty as well. `shards(1)` only ever makes the
/// real pop, so it stays exact.
///
/// ## Batch API
///
/// `ShardedQueue::try_push_n`/`try_pop_n` are its native burst: one
/// shard selection per run of slots, handed to that shard through
/// `detail::push_n`/`pop_n` (and so, on backends with a native burst —
/// FaaQueue claims a run of tickets with a single FAA — one ticket
/// acquisition per segment the run lands in). The facade calls them
/// once per `queue::kBatchChunk` (256) values, so boxed payloads
/// batch exactly like inline ones.
///
/// ## Capacity
///
/// Total capacity stays `2^order` for bounded backends: the order is
/// split as `order - log2(shards)` per shard, so one options value
/// sizes sharded and unsharded queues identically. The constructor
/// throws `std::invalid_argument` when the split leaves a shard under
/// two slots or when `shards` is not a power of two (refuse, never
/// silently clamp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "wcq/concepts.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"
#include "wcq/wcq.hpp"

namespace wcq {

namespace detail {

/// The backend's read-only empty probe where it has one; false (go
/// and pop) for backends without one, so their scan is a plain loop
/// of pops.
template <typename B>
bool looks_empty(const B& b) {
  if constexpr (requires { b.looks_empty(); }) {
    return b.looks_empty();
  } else {
    return false;
  }
}

}  // namespace detail

/// Shards over any concepts::Backend, itself a concepts::Backend over
/// 64-bit slots. It defines no stats(): one op that scans k shards
/// makes k backend attempts, so summed shard counters would not be
/// comparable with a plain queue's.
template <typename Backend = WcqQueue>
class ShardedQueue {
  static_assert(concepts::Backend<Backend>,
                "Backend must satisfy wcq::concepts::Backend "
                "(options ctor + Handle + try_push/try_pop over slots)");

 public:
  class Handle;

  explicit ShardedQueue(const options& opt)
      : nshards_(resolve_shards(opt.shards())),
        mask_(nshards_ - 1),
        policy_(opt.shard_policy()) {
    unsigned shard_bits = 0;
    while ((1u << shard_bits) < nshards_) ++shard_bits;
    if (opt.order() <= shard_bits) {
      throw std::invalid_argument(
          "sharded: order must exceed log2(shards) — the per-shard "
          "split would leave rings under two slots");
    }
    options per_shard = opt;
    per_shard.order(opt.order() - shard_bits);
    shards_ = static_cast<Backend*>(mem::alloc(nshards_ * sizeof(Backend)));
    unsigned made = 0;
    try {
      for (; made < nshards_; ++made) {
        new (&shards_[made]) Backend(per_shard);
      }
    } catch (...) {
      while (made-- > 0) shards_[made].~Backend();
      mem::free(shards_, nshards_ * sizeof(Backend));
      throw;
    }
  }

  ~ShardedQueue() {
    for (unsigned s = 0; s < nshards_; ++s) shards_[s].~Backend();
    mem::free(shards_, nshards_ * sizeof(Backend));
  }

  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  /// RAII registration with EVERY shard (one backend handle each), so
  /// an op can land anywhere without a registration on its hot path.
  /// Move-only; must not outlive the sharded queue.
  class Handle {
   public:
    Handle() = delete;

    Handle(Handle&& o) noexcept
        : q_(std::exchange(o.q_, nullptr)),
          subs_(o.subs_),
          push_cur_(o.push_cur_),
          pop_cur_(o.pop_cur_) {}

    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        q_ = std::exchange(o.q_, nullptr);
        subs_ = o.subs_;
        push_cur_ = o.push_cur_;
        pop_cur_ = o.pop_cur_;
      }
      return *this;
    }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    ~Handle() { release(); }

   private:
    friend class ShardedQueue;
    using BackendHandle = typename Backend::Handle;

    Handle(ShardedQueue* q, BackendHandle* subs, unsigned id)
        : q_(q), subs_(subs), push_cur_(id), pop_cur_(id) {}

    void release() {
      if (q_ != nullptr) {
        for (unsigned s = q_->nshards_; s-- > 0;) subs_[s].~BackendHandle();
        mem::free(subs_, q_->nshards_ * sizeof(BackendHandle));
        q_ = nullptr;
      }
    }

    ShardedQueue* q_ = nullptr;
    BackendHandle* subs_ = nullptr;
    // round_robin cursor / sticky home, one per direction. Masked at
    // use; push and pop start aligned for single-handle FIFO.
    unsigned push_cur_ = 0;
    unsigned pop_cur_ = 0;
  };

  /// nullopt iff some shard has all max_threads handle slots live.
  std::optional<Handle> try_get_handle() {
    using BH = typename Backend::Handle;
    BH* subs = static_cast<BH*>(mem::alloc(nshards_ * sizeof(BH)));
    unsigned made = 0;
    for (; made < nshards_; ++made) {
      auto sub = shards_[made].try_get_handle();
      if (!sub) break;
      new (&subs[made]) BH(std::move(*sub));
    }
    if (made < nshards_) {
      while (made-- > 0) subs[made].~BH();
      mem::free(subs, nshards_ * sizeof(BH));
      return std::nullopt;
    }
    return Handle(this, subs,
                  next_handle_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Throwing flavor for call sites where exhaustion is a logic error.
  Handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "sharded: a shard has all max_threads handle slots "
          "simultaneously live");
    }
    return std::move(*h);
  }

  /// False iff no shard accepts (all full, or the backend reserves
  /// the slot's bit pattern — see queue.hpp's sentinel caveat).
  bool try_push(std::uint64_t slot, Handle& h) {
    return scan(h.push_cur_, [&](unsigned s) {
      return shards_[s].try_push(slot, h.subs_[s]);
    });
  }

  /// A real pop on the cursor's shard; if that finds it empty, a real
  /// pop on each other shard whose probe does not say empty. False
  /// when the cursor's pop and every other shard's probe or pop found
  /// nothing (see "Empty scan").
  bool try_pop(std::uint64_t* slot, Handle& h) {
    const unsigned first = h.pop_cur_ & mask_;
    return scan(h.pop_cur_, [&](unsigned s) {
      return (s == first || !detail::looks_empty(shards_[s])) &&
             shards_[s].try_pop(slot, h.subs_[s]);
    });
  }

  /// Batch push of slots[0..n) in order: one shard pick per run; when
  /// the picked shard refuses mid-run, the refused slot is routed
  /// through the scanning try_push (which also rebalances sticky
  /// homes), and the remainder re-picks. Stops only on a global
  /// refusal; returns the accepted count.
  std::size_t try_push_n(const std::uint64_t* slots, std::size_t n, Handle& h) {
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = pick_shard(h.push_cur_);
      done += detail::push_n(shards_[s], slots + done, n - done, h.subs_[s]);
      if (done == n || !try_push(slots[done], h)) break;
      ++done;
    }
    return done;
  }

  /// Batch pop into slots[0..n): zero when the picked shard gives
  /// nothing and the scanning try_pop finds nothing either. Slots from
  /// one shard arrive in that shard's FIFO order; runs may interleave
  /// shards.
  std::size_t try_pop_n(std::uint64_t* slots, std::size_t n, Handle& h) {
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = pick_shard(h.pop_cur_);
      done += detail::pop_n(shards_[s], slots + done, n - done, h.subs_[s]);
      if (done == n || !try_pop(&slots[done], h)) break;
      ++done;
    }
    return done;
  }

  unsigned shard_count() const { return nshards_; }

  /// Direct access to one shard (tests and benches; not a stable API).
  Backend& shard(unsigned s) { return shards_[s]; }

 private:
  // 0 = auto: a power of two derived from the machine — one shard per
  // ~4 cpus, capped at 8 (the topology-aware sweep in the benches
  // picks its own counts; this default just has to be sane anywhere).
  static unsigned resolve_shards(unsigned requested) {
    if (requested == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      if (hw == 0) hw = 1;
      unsigned want = hw / 4;
      if (want == 0) want = 1;
      if (want > 8) want = 8;
      unsigned p = 1;
      while (p * 2 <= want) p *= 2;
      return p;
    }
    if ((requested & (requested - 1)) != 0) {
      throw std::invalid_argument(
          "sharded: shards must be a power of two (the picker masks, "
          "never divides)");
    }
    if (requested > kMaxShards) {
      throw std::invalid_argument("sharded: shards exceeds 256");
    }
    return requested;
  }

  static constexpr unsigned kMaxShards = 256;

  // One scan from the direction's cursor over every shard, stopping
  // at the first that accepts: round_robin then steps past it, sticky
  // adopts it as home (rebalance on full/empty). A fully-failed scan
  // leaves the cursor alone, so a lone handle's push and pop cursors
  // stay aligned across full/empty episodes.
  template <typename Op>
  bool scan(unsigned& cur, Op op) {
    const unsigned c = cur;
    for (unsigned k = 0; k < nshards_; ++k) {
      if (op((c + k) & mask_)) {
        cur = c + k + (policy_ == shard_policy::round_robin ? 1 : 0);
        return true;
      }
    }
    return false;
  }

  // The shard a batch run should target, advancing picker state once
  // per RUN (that is the amortization): rr steps its cursor, sticky
  // stays home.
  unsigned pick_shard(unsigned& cur) {
    return (policy_ == shard_policy::sticky ? cur : cur++) & mask_;
  }

  const unsigned nshards_;
  const unsigned mask_;
  const shard_policy policy_;
  Backend* shards_ = nullptr;
  std::atomic<unsigned> next_handle_{0};
};

/// The typed sharded queue: the one facade over ShardedQueue.
/// Satisfies concepts::Queue, so the whole harness accepts it as a
/// lineup entry.
template <typename T, typename Backend = WcqQueue>
using sharded = queue<T, ShardedQueue<Backend>>;

}  // namespace wcq
