// Per-layer replays for the traced run. Each layer's public entry
// point is driven single-threaded through thread 0's op schedule of
// the workload, and every call is timed from here as one span:
// nothing inside include/ is instrumented. A span's cost is its
// duration minus the calibrated cost of the two clock reads around it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "closed_loop.hpp"
#include "stats.hpp"

namespace perfbench {

// Median cost of an empty span: two back-to-back clock reads.
inline double clock_overhead_ns() {
  std::vector<std::uint32_t> d(20000);
  for (auto& x : d) {
    const std::uint64_t t0 = now_ns();
    x = clamp_ns(now_ns() - t0);
  }
  std::vector<double> v(d.begin(), d.end());
  return median(std::move(v));
}

// The spans of one layer: a 1-ns histogram of durations per kind for
// the medians, plus the latest kSpanRing spans for the trace file.
class SpanLog {
 public:
  SpanLog(std::string layer, double overhead_ns)
      : layer_(std::move(layer)),
        overhead_(overhead_ns),
        hist_(4 * kHistNs),
        ring_(kSpanRing) {}

  void add(OpKind k, std::uint64_t t0, std::uint64_t t1) {
    const std::uint32_t d = clamp_ns(t1 - t0);
    ++hist_[k * kHistNs + std::min<std::uint32_t>(d, kHistNs - 1)];
    ++by_kind_[k];
    ring_[count_++ & (kSpanRing - 1)] = Span{t0, d, k};
  }

  std::size_t total() const { return count_; }
  const std::string& layer() const { return layer_; }

  // Median cost of one call of kind k with the clock reads removed.
  double cost_ns(OpKind k) const {
    if (by_kind_[k] == 0) return 0.0;
    std::uint64_t seen = 0;
    std::uint32_t ns = 0;
    while ((seen += hist_[k * kHistNs + ns]) < (by_kind_[k] + 1) / 2) ++ns;
    return ns - overhead_;
  }

  std::vector<Span> spans() const {
    return std::vector<Span>(ring_.begin(),
                             ring_.begin() + std::min(count_, ring_.size()));
  }

 private:
  // Durations past the last bucket count there; no median gets close.
  static constexpr std::uint32_t kHistNs = 4096;

  std::string layer_;
  double overhead_;
  std::vector<std::uint64_t> hist_;  // [kind][ns]
  std::size_t by_kind_[4] = {};
  std::vector<Span> ring_;
  std::size_t count_ = 0;
};

// Empty pops appended to each pass of the schedule, so every layer
// reports an empty-path cost even on workloads that never find the
// queue empty (pairwise, burst).
inline constexpr unsigned kEmptyProbes = 8;

// Drives whole passes of `sched` through `push()` (true iff accepted)
// and `pop()` (a FifoExpect code) until `budget_s` is spent.
// Returns the violations: a lone thread never fills these structures,
// and must get back exactly what it pushed, in order.
template <typename Push, typename Pop>
std::uint64_t replay(SpanLog& log, const std::vector<bool>& sched,
                     double budget_s, Push&& push, Pop&& pop) {
  std::uint64_t bad = 0;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (now_ns() < end) {
    for (const bool is_push : sched) {
      const std::uint64_t t0 = now_ns();
      if (is_push) {
        const bool ok = push();
        log.add(ok ? kPush : kRefused, t0, now_ns());
        bad += ok ? 0 : 1;
      } else {
        const int got = pop();
        log.add(got >= 0 ? kPop : kEmpty, t0, now_ns());
        bad += got > 0 ? 1 : 0;
      }
    }
    for (unsigned i = 0; i < kEmptyProbes; ++i) {
      const std::uint64_t t0 = now_ns();
      const int got = pop();
      log.add(got >= 0 ? kPop : kEmpty, t0, now_ns());
      bad += got >= 0 ? 1 : 0;
    }
  }
  return bad;
}

// Values for a lone thread's pushes and the check of its pops, as
// replay()'s pop() codes: -1 empty, 0 the expected value, 1 anything
// else. Rings carry indices, so their values wrap at the capacity.
class FifoExpect {
 public:
  explicit FifoExpect(std::uint64_t mask = ~std::uint64_t{0}) : mask_(mask) {}
  std::uint64_t next_push() { return pushed_++ & mask_; }
  int check(std::uint64_t v) { return v == (popped_++ & mask_) ? 0 : 1; }

 private:
  std::uint64_t mask_;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
};

}  // namespace perfbench
