/// \file
/// wcq::options — the one configuration object every backend consumes.
///
/// A fluent builder (each setter returns *this) so call sites read as
/// a sentence:
///
/// \code
///   wcq::queue<std::uint64_t> q(
///       wcq::options{}.order(16).max_threads(64).help_delay(16));
/// \endcode
///
/// Knobs not meaningful for a given backend are simply ignored by it
/// (e.g. patience for SCQ, order for FAA and MSQ), so one options
/// value can configure a whole lineup of queues identically — which
/// is exactly what the benchmark harness does.
#pragma once

namespace wcq {

/// How `wcq::sharded<T>` picks the shard an operation lands on.
/// Ordering contract per picker is documented on wcq/sharded.hpp; both
/// preserve per-shard FIFO. For a global order use `shards(1)`.
enum class shard_policy : unsigned char {
  round_robin,  ///< per-handle cursor, one step per op (default)
  sticky,       ///< producer/consumer shard affinity, rebalance on
                ///< full (push) or empty (pop)
};

/// Fluent configuration builder shared by every queue backend.
///
/// Defaults match the paper's §6 methodology (2^16 ring, patience
/// 16/64, HELP_DELAY 16, Cache_Remap on). Each setter returns *this;
/// the same-name no-argument overload reads the knob back.
class options {
 public:
  constexpr options() = default;

  /// Ring capacity = 2^order values (bounded backends; paper §6
  /// uses 16). LSCQ and LCRQ size their segments by it; FAA and MSQ
  /// do not read it.
  constexpr options& order(unsigned v) {
    order_ = v;
    return *this;
  }
  constexpr unsigned order() const { return order_; }

  /// Upper bound on *simultaneously live* handles. With RAII
  /// recycling this is a concurrency bound, not a lifetime-total
  /// bound. It also sets the SMR amnesty of the dynamic-memory
  /// backends: a handle slot parks up to 2 x max_threads retired
  /// nodes before it scans (wcq/smr.hpp).
  constexpr options& max_threads(unsigned v) {
    max_threads_ = v;
    return *this;
  }
  constexpr unsigned max_threads() const { return max_threads_; }

  /// Fast-path attempts before an enqueue is published for helping
  /// (wCQ; paper §6 default 16).
  constexpr options& enqueue_patience(unsigned v) {
    enqueue_patience_ = v;
    return *this;
  }
  constexpr unsigned enqueue_patience() const { return enqueue_patience_; }

  /// Fast-path attempts before a dequeue is published for helping
  /// (wCQ; paper §6 default 64).
  constexpr options& dequeue_patience(unsigned v) {
    dequeue_patience_ = v;
    return *this;
  }
  constexpr unsigned dequeue_patience() const { return dequeue_patience_; }

  /// Both patience knobs at once, preserving the paper's 1:4 shape
  /// when callers sweep a single value.
  constexpr options& patience(unsigned enq, unsigned deq) {
    enqueue_patience_ = enq;
    dequeue_patience_ = deq;
    return *this;
  }

  /// Own operations between peer help checks (wCQ §3.1).
  constexpr options& help_delay(unsigned v) {
    help_delay_ = v;
    return *this;
  }
  constexpr unsigned help_delay() const { return help_delay_; }

  /// Cache_Remap position permutation (§2; Ablation A3).
  constexpr options& remap(bool v) {
    remap_ = v;
    return *this;
  }
  constexpr bool remap() const { return remap_; }

  /// Shard count for wcq::sharded (must be a power of two; its
  /// constructor throws std::invalid_argument otherwise). 0 = auto:
  /// a machine-derived count (see wcq/sharded.hpp). Total capacity
  /// stays 2^order — it is split across the shards, so one options
  /// value sizes a sharded and an unsharded queue identically.
  constexpr options& shards(unsigned v) {
    shards_ = v;
    return *this;
  }
  constexpr unsigned shards() const { return shards_; }

  /// Shard-picking policy for wcq::sharded (ignored by plain
  /// backends). See wcq::shard_policy.
  using shard_policy_t = wcq::shard_policy;
  constexpr options& shard_policy(shard_policy_t v) {
    shard_policy_ = v;
    return *this;
  }
  constexpr shard_policy_t shard_policy() const { return shard_policy_; }

 private:
  unsigned order_ = 16;
  unsigned max_threads_ = 128;
  unsigned enqueue_patience_ = 16;
  unsigned dequeue_patience_ = 64;
  unsigned help_delay_ = 16;
  bool remap_ = true;
  unsigned shards_ = 0;  // 0 = auto
  shard_policy_t shard_policy_ = shard_policy_t::round_robin;
};

}  // namespace wcq
