// Segment-list coverage, beyond the shared battery the ctest lineup
// already runs against LCRQ and LSCQ (fifo_* / empty_full_* / mpmc_*).
// These tests force the parts the generic battery touches only by
// luck: segment closure and list crossing (tiny order) over both
// segment types, retirement of drained segments through the shared
// SMR layer (bounded, non-zero reclamation), LCRQ's reserved all-ones
// sentinel, and heavy MPMC churn over a ring small enough that every
// few hundred ops closes one.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/mem.hpp"
#include "wcq/queue.hpp"

namespace {

using namespace wcq;
using harness::LcrqAdapter;
using harness::LscqAdapter;
using wcq::test::env_ops;

// Order-4 segments (16 values), thousands of values: every 16 pushes
// fill the tail segment and link a fresh one, so FIFO order must
// survive hundreds of segment crossings, and the drained segments must
// come back through the domain (reclaimed > 0) instead of
// accumulating. LCRQ and LSCQ share the list, so both run it.
template <concepts::ReclaimingQueue Q>
void test_ring_crossing(const char* name) {
  const std::uint64_t n = 4096;
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
  // n values over 16-value segments retire ~n/16 segments; almost all
  // must already be freed, and what's parked is under the amnesty
  // bound.
  WCQ_CHECK(st.retire_calls >= n / 16 - 1,
            "%s: expected ~%llu segment retirements, saw %llu", name,
            (unsigned long long)(n / 16), (unsigned long long)st.retire_calls);
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

// MPMC over an order-5 ring: producers outrun the ring constantly, so
// closes, fix_state repairs, and concurrent ring retirement all happen
// under contention. No loss, no duplication; afterwards the SMR
// counters must show real bounded reclamation, and queue teardown must
// return every ring to the counting allocator.
void test_mpmc_ring_churn() {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 4;
  const std::uint64_t per_producer = env_ops(20000);
  const std::uint64_t total = per_producer * kProducers;

  const auto mem_before = mem::stats().live_bytes;
  std::uint64_t retire_calls = 0;
  {
    LcrqAdapter q(
        options{}.max_threads(kProducers + kConsumers).order(5));

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
          WCQ_CHECK(*v < total, "out-of-range value %llu",
                    (unsigned long long)*v);
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
    for (auto& t : threads) t.join();

    for (std::uint64_t v = 0; v < total; ++v) {
      const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
      WCQ_CHECK(count == 1, "value %llu seen %u times (lost/duplicated)",
                (unsigned long long)v, count);
    }

    const auto st = q.smr_stats();
    retire_calls = st.retire_calls;
    WCQ_CHECK(st.reclaimed_nodes > 0,
              "MPMC churn reclaimed nothing (%llu retires parked forever?)",
              (unsigned long long)st.retire_calls);
    // Bound: every handle slot can park at most threshold rings, plus
    // one hazard-held ring per slot that scans could not free.
    const std::uint64_t slots = kProducers + kConsumers;
    WCQ_CHECK(st.retired_nodes <= slots * (2 * slots) + slots,
              "parked rings exceed the amnesty bound: %llu",
              (unsigned long long)st.retired_nodes);
  }
  WCQ_CHECK(mem::stats().live_bytes == mem_before,
            "LCRQ leaked %llu bytes of rings",
            (unsigned long long)(mem::stats().live_bytes - mem_before));
  std::printf("  ok lcrq_mpmc_ring_churn (%llu ring retires)\n",
              (unsigned long long)retire_calls);
}

}  // namespace

int main() {
  test_ring_crossing<LcrqAdapter>("lcrq");
  test_ring_crossing<LscqAdapter>("lscq");
  test_sentinel_refused();
  test_mpmc_ring_churn();
  return 0;
}
