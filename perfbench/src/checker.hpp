// Built-in correctness check for the benchmark's closed-loop runs.
//
// Every pushed value is tagged with its producer and that producer's
// sequence number (then XORed with a seed-derived key, so the payload
// bits differ from seed to seed). Consumers never store what they pop
// — a 10-second run moves tens of millions of values — they fold each
// one into a per-producer accumulator instead:
//
//   count  values seen from producer p
//   sum    sum of mix(tag) over them: a multiset hash, so a lost value
//          and a duplicated one cannot cancel out the way they would
//          in a plain count
//   last   highest sequence seen from p by this consumer; a linearizable
//          FIFO queue hands one consumer each producer's values in push
//          order, so seeing a lower one is a reorder
//
// After a run the queue is drained through one more consumer, and
// check() compares the merged accumulators with what each producer
// pushed: fewer values is a loss, more is a duplicate, an equal count
// with a different hash is a loss plus a duplicate.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr unsigned kSeqBits = 40;
inline constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

inline std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Producer p's seq-th value, before the key is applied.
inline std::uint64_t tag(unsigned producer, std::uint64_t seq) {
  return (std::uint64_t{producer} + 1) << kSeqBits | seq;
}

struct Verdict {
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupt = 0;  // a value no producer pushed

  std::uint64_t violations() const {
    return lost + duplicated + reordered + corrupt;
  }
};

// One consuming thread's view of a run.
class ConsumerLog {
 public:
  ConsumerLog(unsigned producers, std::uint64_t key, bool fifo)
      : key_(key), fifo_(fifo), lanes_(producers) {}

  void observe(std::uint64_t value) {
    const std::uint64_t t = value ^ key_;
    const std::uint64_t p = (t >> kSeqBits) - 1;
    if (p >= lanes_.size()) {
      ++corrupt_;
      return;
    }
    Lane& l = lanes_[p];
    const std::uint64_t seq = t & kSeqMask;
    // seq == last is a duplicate, which the count already catches.
    if (fifo_ && l.count > 0 && seq < l.last) ++reordered_;
    if (l.count == 0 || seq > l.last) l.last = seq;
    ++l.count;
    l.sum += mix(t);
  }

 private:
  friend Verdict check(const std::vector<std::uint64_t>& pushed,
                       const std::vector<const ConsumerLog*>& logs);

  struct Lane {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t last = 0;
  };

  std::uint64_t key_;
  bool fifo_;
  std::vector<Lane> lanes_;
  std::uint64_t reordered_ = 0;
  std::uint64_t corrupt_ = 0;
};

// pushed[p] = number of values producer p had accepted (sequences
// 0..pushed[p]-1); logs = every consumer of the run, the drain included.
inline Verdict check(const std::vector<std::uint64_t>& pushed,
                     const std::vector<const ConsumerLog*>& logs) {
  Verdict v;
  for (std::size_t p = 0; p < pushed.size(); ++p) {
    std::uint64_t got = 0;
    std::uint64_t got_sum = 0;
    for (const ConsumerLog* log : logs) {
      if (p < log->lanes_.size()) {
        got += log->lanes_[p].count;
        got_sum += log->lanes_[p].sum;
      }
    }
    std::uint64_t want_sum = 0;
    for (std::uint64_t s = 0; s < pushed[p]; ++s) {
      want_sum += mix(tag(static_cast<unsigned>(p), s));
    }
    if (got < pushed[p]) {
      v.lost += pushed[p] - got;
    } else if (got > pushed[p]) {
      v.duplicated += got - pushed[p];
    } else if (got_sum != want_sum) {
      v.lost += 1;
      v.duplicated += 1;
    }
  }
  for (const ConsumerLog* log : logs) {
    v.reordered += log->reordered_;
    v.corrupt += log->corrupt_;
    // A value claiming a producer that never ran would otherwise be
    // invisible to the per-producer sums above.
    for (std::size_t p = pushed.size(); p < log->lanes_.size(); ++p) {
      v.corrupt += log->lanes_[p].count;
    }
  }
  return v;
}

}  // namespace perfbench
