// Segment-list coverage, beyond the shared battery the ctest lineup
// already runs against FAA, LCRQ and LSCQ (fifo_* / empty_full_* /
// mpmc_*). These tests force the parts the generic battery touches
// only by luck: segment closure and list crossing over all three
// segment types, retirement of drained segments through the shared
// SMR layer (bounded, non-zero reclamation), LCRQ's reserved all-ones
// sentinel, FAA's sterile-segment certificate, heavy MPMC churn over
// segments small enough that every few hundred ops closes one, and
// FAA's native burst under concurrency.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/faa_queue.hpp"
#include "wcq/mem.hpp"
#include "wcq/queue.hpp"

namespace {

using namespace wcq;
using harness::FaaAdapter;
using harness::LcrqAdapter;
using harness::LscqAdapter;
using wcq::test::env_ops;

// 256 segments' worth of values through one handle: every per_seg
// pushes fill the tail segment and link a fresh one, so FIFO order
// must survive 255 segment crossings, and the drained segments must
// come back through the domain (reclaimed > 0) instead of
// accumulating. FAA, LCRQ and LSCQ share the list, so all three run
// it: LCRQ and LSCQ at order 4 (16 values per segment), FAA with its
// fixed 1,024-cell segments.
template <concepts::ReclaimingQueue Q>
void test_ring_crossing(const char* name, std::uint64_t per_seg) {
  const std::uint64_t n = 256 * per_seg;
  Q q(options{}.max_threads(2).order(4));
  auto h = q.get_handle();

  for (std::uint64_t i = 0; i < n; ++i) {
    WCQ_CHECK(q.try_push(i, h), "%s: push %llu refused", name,
              (unsigned long long)i);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v.has_value(), "%s: pop %llu empty", name,
              (unsigned long long)i);
    WCQ_CHECK(*v == i,
              "%s: FIFO violated across segment crossings: got %llu want %llu",
              name, (unsigned long long)*v, (unsigned long long)i);
  }
  WCQ_CHECK(!q.try_pop(h).has_value(), "%s: queue should be drained", name);

  const auto st = q.smr_stats();
  // n values retire n/per_seg - 1 segments; almost all must already
  // be freed, and what's parked is under the amnesty bound.
  WCQ_CHECK(st.retire_calls >= n / per_seg - 1,
            "%s: expected ~%llu segment retirements, saw %llu", name,
            (unsigned long long)(n / per_seg),
            (unsigned long long)st.retire_calls);
  WCQ_CHECK(st.reclaimed_nodes > 0, "%s: no drained segment was reclaimed",
            name);
  WCQ_CHECK(st.retired_nodes <= 2 * 2 * 2,  // slots x MAX_GARBAGE(2)
            "%s: parked segments exceed the amnesty bound: %llu", name,
            (unsigned long long)st.retired_nodes);
  std::printf("  ok ring_crossing %s (%llu retires, %llu reclaimed)\n", name,
              (unsigned long long)st.retire_calls,
              (unsigned long long)st.reclaimed_nodes);
}

// The all-ones pattern is the cell-EMPTY sentinel: try_push must
// refuse it (false) instead of losing it, and the refusal must not
// disturb the queue.
void test_sentinel_refused() {
  LcrqAdapter q(options{}.max_threads(2).order(4));
  auto h = q.get_handle();
  WCQ_CHECK(!q.try_push(~std::uint64_t{0}, h),
            "all-ones sentinel must be refused");
  WCQ_CHECK(q.try_push(1, h), "normal push after refusal failed");
  const auto v = q.try_pop(h);
  WCQ_CHECK(v && *v == 1, "queue disturbed by sentinel refusal");
  WCQ_CHECK(!q.try_pop(h).has_value(), "refused sentinel leaked into queue");
  std::printf("  ok lcrq_sentinel_refused\n");
}

// pop_last() is the segment list's licence to retire a segment: once
// it returns false, no push may land in the segment any more, or that
// value would vanish with it. A plain pop() that finds the segment
// empty is no such proof: tickets past it are still open.
void test_faa_segment_sterile() {
  FaaSegment seg(options{});
  std::uint64_t v = 0;
  WCQ_CHECK(seg.push(1) && seg.push(2), "faa segment: push refused");
  WCQ_CHECK(seg.pop(&v) && v == 1, "faa segment: pop lost the head");
  WCQ_CHECK(seg.pop_last(&v) && v == 2,
            "faa segment: pop_last must return a value still present");
  WCQ_CHECK(!seg.pop_last(&v), "faa segment: pop_last invented a value");
  WCQ_CHECK(!seg.push(3),
            "faa segment: a push landed after pop_last certified the "
            "segment sterile");
  std::printf("  ok faa_segment_sterile\n");
}

// MPMC over small segments (LCRQ at order 5, FAA's 1,024 cells):
// producers outrun a segment constantly, so closes, LCRQ's fix_state
// repairs, and concurrent segment retirement all happen under
// contention. No loss, no duplication; afterwards the SMR counters
// must show real bounded reclamation, and queue teardown must return
// every segment to the counting allocator.
template <concepts::ReclaimingQueue Q>
void test_mpmc_ring_churn(const char* name) {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 4;
  const std::uint64_t per_producer = env_ops(20000);
  const std::uint64_t total = per_producer * kProducers;

  const auto mem_before = mem::stats().live_bytes;
  std::uint64_t retire_calls = 0;
  {
    Q q(options{}.max_threads(kProducers + kConsumers).order(5));

    std::vector<std::atomic<std::uint32_t>> seen(total);
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    std::atomic<std::uint64_t> consumed{0};

    std::vector<std::thread> threads;
    threads.reserve(kProducers + kConsumers);
    for (unsigned p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        auto h = q.get_handle();
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          const std::uint64_t v = p * per_producer + i;
          while (!q.try_push(v, h)) std::this_thread::yield();
        }
      });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&] {
        auto h = q.get_handle();
        while (consumed.load(std::memory_order_acquire) < total) {
          const auto v = q.try_pop(h);
          if (!v) {
            std::this_thread::yield();
            continue;
          }
          WCQ_CHECK(*v < total, "%s: out-of-range value %llu", name,
                    (unsigned long long)*v);
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
    for (auto& t : threads) t.join();

    for (std::uint64_t v = 0; v < total; ++v) {
      const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
      WCQ_CHECK(count == 1, "%s: value %llu seen %u times (lost/duplicated)",
                name, (unsigned long long)v, count);
    }

    const auto st = q.smr_stats();
    retire_calls = st.retire_calls;
    WCQ_CHECK(st.reclaimed_nodes > 0,
              "%s: MPMC churn reclaimed nothing (%llu retires parked?)", name,
              (unsigned long long)st.retire_calls);
    // Bound: every handle slot can park at most threshold segments,
    // plus one hazard-held segment per slot that scans could not free.
    const std::uint64_t slots = kProducers + kConsumers;
    WCQ_CHECK(st.retired_nodes <= slots * (2 * slots) + slots,
              "%s: parked segments exceed the amnesty bound: %llu", name,
              (unsigned long long)st.retired_nodes);
  }
  WCQ_CHECK(mem::stats().live_bytes == mem_before,
            "%s leaked %llu bytes of segments", name,
            (unsigned long long)(mem::stats().live_bytes - mem_before));
  std::printf("  ok mpmc_ring_churn %s (%llu segment retires)\n", name,
              (unsigned long long)retire_calls);
}

// FAA's native burst under concurrency: 2 producers try_push_n
// 64-value chunks while 2 consumers try_pop_n, across at least 127
// segment crossings (1,024-cell segments; poisoned tickets add more).
// Consumers claim tickets in the middle of a producer's run, so runs
// collide with poisoned cells as well as with segment ends; the
// values a run leaves behind must still be pushed, after the ones
// before them. No loss, no duplication, and each consumer sees each
// producer's values in push order.
void test_faa_burst_mpmc() {
  constexpr unsigned kProducers = 2;
  constexpr unsigned kConsumers = 2;
  constexpr std::size_t kChunk = 64;
  constexpr std::uint64_t kPerProducer = 1024 * kChunk;
  constexpr std::uint64_t kTotal = kPerProducer * kProducers;

  FaaAdapter q(options{}.max_threads(kProducers + kConsumers));
  std::vector<std::atomic<std::uint32_t>> seen(kTotal);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::atomic<unsigned> producers_done{0};
  // Producers wait (a bounded while, so a lost value cannot hang the
  // test) until they are at most one chunk ahead of the consumers, so
  // pops claim tickets of runs still being written and poison cells.
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};

  std::vector<std::thread> threads;
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.get_handle();
      std::uint64_t chunk[kChunk];
      for (std::uint64_t i = 0; i < kPerProducer; i += kChunk) {
        for (std::size_t j = 0; j < kChunk; ++j) {
          chunk[j] = p * kPerProducer + i + j;
        }
        for (unsigned wait = 0;
             wait < 1000 && pushed.load(std::memory_order_acquire) >
                                popped.load(std::memory_order_acquire) + kChunk;
             ++wait) {
          std::this_thread::yield();
        }
        const std::size_t ok = q.try_push_n(chunk, kChunk, h);
        WCQ_CHECK(ok == kChunk, "faa burst: pushed %zu of %zu", ok, kChunk);
        pushed.fetch_add(kChunk, std::memory_order_acq_rel);
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      auto h = q.get_handle();
      std::uint64_t out[kChunk];
      std::uint64_t next[kProducers] = {};  // lowest index still owed
      for (;;) {
        // Read before the pop: once every push has returned, an empty
        // pop means drained, and a lost value shows as a zero count
        // below instead of a hang.
        const bool last = producers_done.load(std::memory_order_acquire) ==
                          kProducers;
        const std::size_t got = q.try_pop_n(out, kChunk, h);
        if (got == 0) {
          if (last) break;
          std::this_thread::yield();
          continue;
        }
        for (std::size_t j = 0; j < got; ++j) {
          const std::uint64_t v = out[j];
          WCQ_CHECK(v < kTotal, "faa burst: out-of-range value %llu",
                    (unsigned long long)v);
          const std::uint64_t p = v / kPerProducer;
          const std::uint64_t i = v % kPerProducer;
          WCQ_CHECK(i >= next[p],
                    "faa burst: producer %llu's value %llu arrived after "
                    "%llu (push order lost)",
                    (unsigned long long)p, (unsigned long long)i,
                    (unsigned long long)(next[p] - 1));
          next[p] = i + 1;
          seen[v].fetch_add(1, std::memory_order_relaxed);
        }
        popped.fetch_add(got, std::memory_order_acq_rel);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (std::uint64_t v = 0; v < kTotal; ++v) {
    const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
    WCQ_CHECK(count == 1, "faa burst: value %llu seen %u times",
              (unsigned long long)v, count);
  }
  const auto st = q.smr_stats();
  WCQ_CHECK(st.retire_calls >= kTotal / 1024 - 1,
            "faa burst: only %llu segments retired, want %llu crossings",
            (unsigned long long)st.retire_calls,
            (unsigned long long)(kTotal / 1024 - 1));
  std::printf("  ok faa_burst_mpmc (%llu segment retires)\n",
              (unsigned long long)st.retire_calls);
}

}  // namespace

int main() {
  test_ring_crossing<LcrqAdapter>("lcrq", 16);
  test_ring_crossing<LscqAdapter>("lscq", 16);
  test_ring_crossing<FaaAdapter>("faa", 1024);
  test_sentinel_refused();
  test_faa_segment_sterile();
  test_mpmc_ring_churn<LcrqAdapter>("lcrq");
  test_mpmc_ring_churn<FaaAdapter>("faa");
  test_faa_burst_mpmc();
  return 0;
}
