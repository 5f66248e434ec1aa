// wcq::sharded correctness: the queue-of-queues layer's own contract
// (per-shard FIFO, relaxed cross-shard order, an empty scan that never
// hides a value from a quiescent queue), every picker policy, the
// batch API's edge cases (partial fills, zero spans, boxed payloads,
// sentinel refusal, chunking), constructor validation, and handle
// churn over recycled sub-handle rows. The shared battery
// (fifo/empty_full/mpmc/churn) also runs the sharded adapters; this
// file covers what those generic checks cannot see.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/topology.hpp"
#include "queue_test_common.hpp"
#include "wcq/faa_queue.hpp"
#include "wcq/sharded.hpp"

namespace {

using namespace wcq;

// perfbench names the sharded subject with one template argument.
static_assert(concepts::Queue<sharded<std::uint64_t>>);

constexpr shard_policy kAllPolicies[] = {
    shard_policy::round_robin,
    shard_policy::sticky,
};

const char* policy_name(shard_policy p) {
  switch (p) {
    case shard_policy::round_robin:
      return "round_robin";
    case shard_policy::sticky:
      return "sticky";
  }
  return "?";
}

// MPMC no-loss/no-duplication across shards, every policy. Producers
// tag values; consumers account for every one exactly once. Order is
// deliberately unchecked — cross-shard order is relaxed by contract.
void test_mpmc_all_policies() {
  const std::uint64_t per_producer = test::env_ops(8000);
  for (const auto pol : kAllPolicies) {
    constexpr unsigned kProducers = 3;
    constexpr unsigned kConsumers = 3;
    sharded<std::uint64_t> q(options{}
                                 .order(10)
                                 .shards(4)
                                 .shard_policy(pol)
                                 .max_threads(kProducers + kConsumers + 2));
    const std::uint64_t total = per_producer * kProducers;
    std::vector<std::atomic<std::uint32_t>> seen(total);
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    std::atomic<std::uint64_t> consumed{0};

    std::vector<std::thread> threads;
    for (unsigned p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        auto h = q.get_handle();
        for (std::uint64_t i = 0; i < per_producer; ++i) {
          while (!q.try_push(p * per_producer + i, h)) {
            std::this_thread::yield();
          }
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
          WCQ_CHECK(*v < total, "sharded/%s: out-of-range %llu",
                    policy_name(pol), (unsigned long long)*v);
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_acq_rel);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (std::uint64_t v = 0; v < total; ++v) {
      WCQ_CHECK(seen[v].load() == 1, "sharded/%s: value %llu seen %u times",
                policy_name(pol), (unsigned long long)v, seen[v].load());
    }
    std::printf("  ok sharded_mpmc      %s\n", policy_name(pol));
  }
}

// The empty scan's probe must never hide a value from a quiescent
// queue. One value at a time goes straight into one shard through
// `backend().shard(s)` and must come back from the facade's try_pop.
// Shards are visited in descending order, so after the first round
// each value sits off the pop cursor under both pickers (round_robin
// steps to s + 1, sticky stays on s). Between rounds, empty pops
// spend every shard's threshold and a push/pop pass moves Head and
// Tail. FaaQueue has no probe and runs the same check.
template <typename Backend>
void test_probe_never_hides(const char* backend) {
  constexpr unsigned kShards = 4;
  for (const auto pol : kAllPolicies) {
    sharded<std::uint64_t, Backend> q(
        options{}.order(8).shards(kShards).shard_policy(pol));
    auto h = q.get_handle();
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (unsigned s = kShards; s-- > 0;) {
        auto& shard = q.backend().shard(s);
        auto bh = shard.get_handle();
        const std::uint64_t v = round * kShards + s + 1;
        WCQ_CHECK(shard.try_push(v, bh), "%s/%s: shard %u refused", backend,
                  policy_name(pol), s);
        const auto got = q.try_pop(h);
        WCQ_CHECK(got && *got == v,
                  "%s/%s: round %llu value in shard %u hidden (got %s)",
                  backend, policy_name(pol), (unsigned long long)round, s,
                  got ? "another value" : "empty");
        WCQ_CHECK(!q.try_pop(h), "%s/%s: pop after the only value succeeded",
                  backend, policy_name(pol));
      }
      for (unsigned i = 0; i < 200; ++i) (void)q.try_pop(h);
      for (std::uint64_t i = 0; i < 50; ++i) {
        WCQ_CHECK(q.try_push(1000 + i, h), "%s/%s: churn push refused",
                  backend, policy_name(pol));
      }
      unsigned drained = 0;
      while (q.try_pop(h)) ++drained;
      WCQ_CHECK(drained == 50, "%s/%s: churn drained %u of 50", backend,
                policy_name(pol), drained);
    }
  }
  std::printf("  ok sharded_probe     %s off-cursor values found\n", backend);
}

// Poll-shaped MPMC: 4 threads each push 1 then pop 2 over 4 shards, so
// about half the pops find the queue empty and walk the probe path
// while peers push. After join, one handle's drain must account for
// every value exactly once.
void test_poll_mpmc() {
  constexpr unsigned kThreads = 4;
  const std::uint64_t per_thread = test::env_ops(8000);
  const std::uint64_t total = per_thread * kThreads;
  for (const auto pol : kAllPolicies) {
    sharded<std::uint64_t> q(options{}
                                 .order(10)
                                 .shards(4)
                                 .shard_policy(pol)
                                 .max_threads(kThreads + 1));
    std::vector<std::atomic<std::uint32_t>> seen(total);
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    const auto take = [&](std::uint64_t v) {
      WCQ_CHECK(v < total, "poll/%s: out-of-range %llu", policy_name(pol),
                (unsigned long long)v);
      seen[v].fetch_add(1, std::memory_order_relaxed);
    };

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto h = q.get_handle();
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          while (!q.try_push(t * per_thread + i, h)) {
            std::this_thread::yield();
          }
          for (int k = 0; k < 2; ++k) {
            if (const auto v = q.try_pop(h)) take(*v);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    {
      auto h = q.get_handle();
      while (const auto v = q.try_pop(h)) take(*v);
    }
    for (std::uint64_t v = 0; v < total; ++v) {
      WCQ_CHECK(seen[v].load() == 1, "poll/%s: value %llu seen %u times",
                policy_name(pol), (unsigned long long)v, seen[v].load());
    }
    std::printf("  ok sharded_poll      %s push 1 / pop 2\n",
                policy_name(pol));
  }
}

// Per-shard FIFO: values one handle pushes into one shard come back in
// push order. Sticky pins the whole sequence to the handle's home
// shard, making the layer's strongest ordering claim directly
// checkable through the public surface.
void test_per_shard_fifo_sticky() {
  sharded<std::uint64_t> q(
      options{}.order(12).shards(4).shard_policy(shard_policy::sticky));
  auto h = q.get_handle();
  const std::uint64_t n = 500;  // fits one shard (order 12/4 = 1024)
  const auto push_all = [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      WCQ_CHECK(q.try_push(i, h), "sticky push %llu refused",
                (unsigned long long)i);
    }
  };
  push_all();
  // Same handle, aligned home: exact FIFO back out.
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == i, "sticky FIFO broken at %llu",
              (unsigned long long)i);
  }
  // Again, read shard by shard: exactly one shard is non-empty, and it
  // holds everything in push order.
  push_all();
  unsigned loaded = 0;
  for (unsigned s = 0; s < q.backend().shard_count(); ++s) {
    auto& shard = q.backend().shard(s);
    auto bh = shard.get_handle();
    std::uint64_t v = 0;
    std::uint64_t got = 0;
    while (shard.try_pop(&v, bh)) {
      WCQ_CHECK(v == got, "sticky shard %u out of order at %llu: got %llu",
                s, (unsigned long long)got, (unsigned long long)v);
      ++got;
    }
    if (got != 0) {
      ++loaded;
      WCQ_CHECK(got == n, "sticky scattered: shard %u holds %llu of %llu", s,
                (unsigned long long)got, (unsigned long long)n);
    }
  }
  WCQ_CHECK(loaded == 1, "sticky touched %u shards", loaded);
  std::printf("  ok sharded_fifo      sticky per-shard order\n");
}

// Sticky rebalance: filling the home shard must move the handle to a
// new home (push keeps succeeding past one shard's capacity), and a
// pop on an empty home must find the data wherever it lives.
void test_sticky_rebalance() {
  // 4 shards x 16 slots each
  sharded<std::uint64_t> q(
      options{}.order(6).shards(4).shard_policy(shard_policy::sticky));
  auto h = q.get_handle();
  // Full capacity must be reachable despite per-shard rings of 16:
  // each overflow rebalances the home to the shard that accepted.
  for (std::uint64_t i = 0; i < 64; ++i) {
    WCQ_CHECK(q.try_push(i, h), "rebalance push %llu refused",
              (unsigned long long)i);
  }
  WCQ_CHECK(!q.try_push(999, h), "push past total capacity succeeded");
  // Take one value out of each shard through a backend handle and put
  // it straight back: a shard that yields one was reached.
  unsigned non_empty = 0;
  for (unsigned s = 0; s < 4; ++s) {
    auto& shard = q.backend().shard(s);
    auto bh = shard.get_handle();
    std::uint64_t v = 0;
    if (shard.try_pop(&v, bh)) {
      ++non_empty;
      WCQ_CHECK(shard.try_push(v, bh), "shard %u refused its own value", s);
    }
  }
  WCQ_CHECK(non_empty == 4, "rebalance-on-full reached %u of 4 shards",
            non_empty);

  // A second handle (different home) drains everything: rebalance-on-
  // empty walks it across all shards.
  auto h2 = q.get_handle();
  unsigned got = 0;
  while (q.try_pop(h2)) ++got;
  WCQ_CHECK(got == 64, "rebalance-on-empty drained %u of 64", got);
  std::printf("  ok sharded_rebalance sticky full/empty\n");
}

// Batch edges: zero-size spans, spans above queue::kBatchChunk
// (chunking), partial acceptance at capacity, and partial pops at
// drain.
void test_batch_edges() {
  constexpr std::size_t kSpan = 300;  // crosses one 256-value chunk
  constexpr std::size_t kCap = 1024;  // 4 shards x 256 slots
  constexpr std::size_t kFlood = 1100;
  sharded<std::uint64_t> q(options{}.order(10).shards(4));
  auto h = q.get_handle();

  std::uint64_t none = 0;
  WCQ_CHECK(q.try_push_n(&none, 0, h) == 0, "zero-size push_n");
  WCQ_CHECK(q.try_pop_n(&none, 0, h) == 0, "zero-size pop_n");

  std::vector<std::uint64_t> in(kSpan), out(kSpan);
  for (std::uint64_t i = 0; i < kSpan; ++i) in[i] = i;
  WCQ_CHECK(q.try_push_n(in.data(), kSpan, h) == kSpan, "chunked push_n");
  std::size_t got = 0;
  while (got < kSpan) {
    const std::size_t k = q.try_pop_n(out.data() + got, kSpan - got, h);
    WCQ_CHECK(k > 0, "pop_n stalled at %zu of %zu", got, kSpan);
    got += k;
  }
  std::vector<bool> seen(kSpan, false);
  for (std::uint64_t v : out) {
    WCQ_CHECK(v < kSpan && !seen[v], "batch lost/duplicated %llu",
              (unsigned long long)v);
    seen[v] = true;
  }
  WCQ_CHECK(q.try_pop_n(out.data(), kSpan, h) == 0, "drained pop_n not 0");

  // Partial acceptance: offer more than capacity — exactly kCap land.
  std::vector<std::uint64_t> big(kFlood, 7);
  WCQ_CHECK(q.try_push_n(big.data(), kFlood, h) == kCap,
            "partial push_n at capacity");
  WCQ_CHECK(q.try_push(1, h) == false, "queue should be full");
  got = 0;
  while (got < kCap) {
    const std::size_t k = q.try_pop_n(out.data(), kSpan, h);
    WCQ_CHECK(k > 0, "partial drain stalled at %zu", got);
    got += k;
  }
  WCQ_CHECK(got == kCap, "partial drain got %zu", got);
  std::printf("  ok sharded_batch     edges (zero/chunk/partial)\n");
}

// Boxed payloads batch exactly like inline ones: every value goes
// through slot_codec's heap box, refused boxes are dropped, and
// teardown drains live boxes (live_bytes returns to baseline).
void test_batch_boxed() {
  // Past one 256-value chunk, so boxes cross a boundary.
  constexpr std::size_t kSpan = 300;
  constexpr std::size_t kCap = 1024;  // 2 shards x 512 slots
  const std::uint64_t live_before = mem::stats().live_bytes;
  {
    sharded<std::string> q(options{}.order(10).shards(2));
    auto h = q.get_handle();
    std::vector<std::string> in, out(kSpan);
    for (std::size_t i = 0; i < kSpan; ++i) {
      in.push_back("value-" + std::to_string(i));
    }
    WCQ_CHECK(q.try_push_n(in.data(), in.size(), h) == kSpan, "boxed push_n");
    std::size_t got = 0;
    while (got < kSpan) {
      const std::size_t k = q.try_pop_n(out.data() + got, kSpan - got, h);
      WCQ_CHECK(k > 0, "boxed pop_n stalled");
      got += k;
    }
    std::vector<bool> seen(kSpan, false);
    for (const auto& s : out) {
      WCQ_CHECK(s.rfind("value-", 0) == 0, "boxed payload corrupted: %s",
                s.c_str());
      const int i = std::atoi(s.c_str() + 6);
      WCQ_CHECK(!seen[i], "boxed duplicate %d", i);
      seen[i] = true;
    }
    // Overfill past capacity; refused boxes must not leak.
    std::vector<std::string> flood(kCap + kSpan, std::string("flood"));
    const std::size_t ok = q.try_push_n(flood.data(), flood.size(), h);
    WCQ_CHECK(ok == kCap, "boxed overfill accepted %zu", ok);
    // Leave the queue non-empty: the destructor must drop live boxes.
  }
  WCQ_CHECK(mem::stats().live_bytes == live_before,
            "boxed sharded queue leaked %llu bytes",
            (unsigned long long)(mem::stats().live_bytes - live_before));
  std::printf("  ok sharded_boxed     batch over slot_codec boxes\n");
}

// FAA reserves its top two slot patterns as EMPTY/TAKEN sentinels; an
// inline value colliding with them must be refused — mid-batch — with
// everything before it accepted and nothing after it lost.
void test_batch_sentinel_refusal() {
  sharded<std::uint64_t, FaaQueue> q(options{}.shards(2));
  auto h = q.get_handle();
  std::uint64_t vs[5] = {1, 2, ~std::uint64_t{0}, 4, 5};
  WCQ_CHECK(q.try_push_n(vs, 5, h) == 2,
            "sentinel must stop the batch after the accepted prefix");
  std::uint64_t out[5] = {};
  WCQ_CHECK(q.try_pop_n(out, 5, h) == 2 && out[0] == 1 && out[1] == 2,
            "prefix before sentinel lost");
  // Single-op refusal for comparison (same contract as queue<T,Faa>).
  WCQ_CHECK(!q.try_push(~std::uint64_t{0}, h), "sentinel push accepted");
  std::printf("  ok sharded_sentinel  FAA reserved-pattern refusal\n");
}

// Constructor validation: refuse, never clamp.
void test_validation_throws() {
  auto throws = [](auto make) {
    try {
      make();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  WCQ_CHECK(throws([] { sharded<std::uint64_t> q(options{}.shards(3)); }),
            "non-power-of-two shards must throw");
  WCQ_CHECK(throws([] { sharded<std::uint64_t> q(options{}.shards(512)); }),
            "shards > 256 must throw");
  WCQ_CHECK(
      throws([] { sharded<std::uint64_t> q(options{}.shards(8).order(3)); }),
      "order <= log2(shards) must throw");
  // The boundary cases that must NOT throw.
  sharded<std::uint64_t> ok1(options{}.shards(1).order(1));
  sharded<std::uint64_t> ok2(options{}.shards(4).order(3));
  std::printf("  ok sharded_validate  invalid_argument on bad knobs\n");
}

// Handle churn: sharded handles hold one sub-handle per shard; waves
// of threads far past max_threads must recycle whole rows, and
// exhaustion must be a reportable error, not an abort.
void test_handle_churn() {
  constexpr unsigned kMaxThreads = 4;
  sharded<std::uint64_t> q(
      options{}.order(8).shards(4).max_threads(kMaxThreads));
  for (unsigned wave = 0; wave < 8; ++wave) {
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kMaxThreads; ++t) {
      threads.emplace_back([&, t] {
        auto h = q.get_handle();
        for (std::uint64_t i = 0; i < 200; ++i) {
          while (!q.try_push(t * 1000 + i, h)) std::this_thread::yield();
          while (!q.try_pop(h)) std::this_thread::yield();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  // Exhaustion at the boundary: kMaxThreads rows live -> next is an
  // error; releasing one row frees a slot in every shard.
  {
    std::vector<decltype(q.get_handle())> held;
    for (unsigned i = 0; i < kMaxThreads; ++i) held.push_back(q.get_handle());
    WCQ_CHECK(!q.try_get_handle().has_value(),
              "exhaustion must be nullopt, not abort");
    bool threw = false;
    try {
      (void)q.get_handle();
    } catch (const std::runtime_error&) {
      threw = true;
    }
    WCQ_CHECK(threw, "get_handle must throw on exhaustion");
    held.pop_back();
    WCQ_CHECK(q.try_get_handle().has_value(),
              "released row must free a slot in every shard");
  }
  std::printf("  ok sharded_churn     %u waves over max_threads=%u\n", 8u,
              kMaxThreads);
}

// Topology helper sanity: it must never lie about structure (every
// online cpu in exactly one cluster) and its recommendations must be
// usable sharded configs on any machine.
void test_topology_helper() {
  const auto& t = topo::cpu_topology();
  WCQ_CHECK(t.cpus >= 1, "topology lost the cpus");
  WCQ_CHECK(!t.clusters.empty(), "topology must report >= 1 cluster");
  unsigned covered = 0;
  for (const auto& c : t.clusters) {
    WCQ_CHECK(!c.empty(), "empty cluster");
    covered += static_cast<unsigned>(c.size());
  }
  WCQ_CHECK(covered == t.cpus, "clusters cover %u of %u cpus", covered,
            t.cpus);
  const unsigned rec = topo::recommended_shards();
  WCQ_CHECK(rec >= 1 && (rec & (rec - 1)) == 0,
            "recommended_shards %u not a power of two", rec);
  // The recommendation must construct (order 16 default leaves room).
  sharded<std::uint64_t> q(options{}.shards(rec));
  WCQ_CHECK(q.backend().shard_count() == rec, "shard_count mismatch");
  (void)topo::shard_cpu(0, 0);  // must not crash on any machine
  std::printf("  ok sharded_topology  %u cpus / %zu clusters -> %u shards\n",
              t.cpus, t.clusters.size(), rec);
}

}  // namespace

int main() {
  // The probe checks run first: a probe that hides values would make
  // the MPMC consumers below spin until the ctest timeout.
  test_probe_never_hides<WcqQueue>("wcq");
  test_probe_never_hides<FaaQueue>("faa");
  test_mpmc_all_policies();
  test_poll_mpmc();
  test_per_shard_fifo_sticky();
  test_sticky_rebalance();
  test_batch_edges();
  test_batch_boxed();
  test_batch_sentinel_refusal();
  test_validation_throws();
  test_handle_churn();
  test_topology_helper();
  return 0;
}
