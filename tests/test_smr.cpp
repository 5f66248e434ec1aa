// Direct coverage of wcq::smr::Domain — the shared reclamation layer
// under MSQ and the segment list (FAA/LCRQ/LSCQ). Single-threaded
// checks pin down the protection semantics (a hazard must block the
// free, clearing it must unblock); the churn test swaps a shared node
// under concurrent hazard-protected readers across waves of recycled
// slots, so a protection bug is a real use-after-free ASan flags, and
// the amnesty bound is asserted from live stats.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/mem.hpp"
#include "wcq/smr.hpp"

namespace {

using namespace wcq;
using wcq::test::env_ops;

// A retire target with a liveness canary. Deletion scribbles the
// canary before freeing, so a reader holding a stale unprotected
// pointer sees the wrong value even when ASan is not watching.
struct Node {
  static constexpr std::uint64_t kAlive = 0xA11CEA11CEull;
  std::uint64_t canary = kAlive;
  std::uint64_t payload = 0;
};

Node* make_node(std::uint64_t payload) {
  void* raw = mem::alloc(sizeof(Node), alignof(Node));
  Node* n = new (raw) Node();
  n->payload = payload;
  return n;
}

void delete_node(void* p, void*) {
  Node* n = static_cast<Node*>(p);
  n->canary = 0xDEADDEADull;  // poison before the allocator reuses it
  n->~Node();
  mem::free(n, sizeof(Node), alignof(Node));
}

// A hazard published by one slot must hold a node retired by another
// slot across any number of scans; clearing the hazard releases it.
void test_hazard_blocks_free() {
  smr::Domain d(2, /*retire_threshold=*/1);
  Node* n = make_node(7);
  std::atomic<Node*> src{n};

  Node* got = d.protect(0, 0, src);
  WCQ_CHECK(got == n, "protect must return the published pointer");

  src.store(nullptr, std::memory_order_release);  // unlink
  d.retire(1, n, &delete_node, nullptr);          // threshold=1: scans now
  for (int i = 0; i < 8; ++i) d.scan(1);
  WCQ_CHECK(n->canary == Node::kAlive,
            "hazard-protected node was freed under the reader");
  WCQ_CHECK(d.stats().retired_nodes == 1, "node must still be parked");

  d.clear_hazard(0, 0);
  d.scan(1);
  const auto st = d.stats();
  WCQ_CHECK(st.retired_nodes == 0 && st.reclaimed_nodes == 1,
            "cleared hazard must let the scan free the node "
            "(retired=%llu reclaimed=%llu)",
            (unsigned long long)st.retired_nodes,
            (unsigned long long)st.reclaimed_nodes);
  std::printf("  ok smr_hazard_blocks_free\n");
}

// With nothing protected, the per-slot list must never exceed the
// amnesty threshold: every retire at the bound triggers a scan that
// drains it completely.
void test_retire_threshold_bound() {
  constexpr unsigned kSlots = 4;
  smr::Domain d(kSlots);  // auto threshold = 2 * kSlots
  const unsigned threshold = d.threshold();
  WCQ_CHECK(threshold == 2 * kSlots, "auto threshold must be MAX_GARBAGE=2n");

  for (unsigned i = 0; i < 10 * threshold; ++i) {
    d.retire(0, make_node(i), &delete_node, nullptr);
    WCQ_CHECK(d.stats().retired_nodes < threshold,
              "unprotected garbage exceeded the amnesty bound: %llu >= %u",
              (unsigned long long)d.stats().retired_nodes, threshold);
  }
  const auto st = d.stats();
  WCQ_CHECK(st.reclaimed_nodes + st.retired_nodes == 10 * threshold,
            "retired nodes lost: reclaimed=%llu parked=%llu of %u",
            (unsigned long long)st.reclaimed_nodes,
            (unsigned long long)st.retired_nodes, 10 * threshold);
  WCQ_CHECK(st.scans >= 10, "threshold retires must have forced scans");
  std::printf("  ok smr_threshold_bound (threshold=%u)\n", threshold);
}

// Nodes still parked when the domain dies are freed by its destructor
// (teardown contract: no concurrent access, free unconditionally).
void test_destructor_drains() {
  const auto before = mem::stats().live_bytes;
  {
    smr::Domain d(2, /*retire_threshold=*/1000);  // park, never scan
    for (unsigned i = 0; i < 64; ++i) {
      d.retire(0, make_node(i), &delete_node, nullptr);
    }
    WCQ_CHECK(d.stats().retired_nodes == 64, "expected 64 parked nodes");
  }
  WCQ_CHECK(mem::stats().live_bytes == before,
            "domain destructor leaked parked nodes");
  std::printf("  ok smr_dtor_drains\n");
}

// The MSQ/LCRQ shape under churn: writers publish a replacement node
// and retire the old one; readers chase the shared pointer through
// protect() and validate the canary. Threads come in waves, each wave
// claiming a fresh strip of recycled slots (quiesce between waves,
// like RegistryHandle teardown does). Any window where a retired node
// frees while a hazard covers it is a use-after-free on the canary
// read — ASan turns it into a hard fault, the canary check catches it
// everywhere else.
void test_concurrent_churn() {
  constexpr unsigned kReaders = 3;
  constexpr unsigned kWriters = 2;
  constexpr unsigned kSlots = kReaders + kWriters;
  constexpr unsigned kWaves = 4;
  const std::uint64_t swaps_per_writer = env_ops(20000);

  const auto mem_before = mem::stats().live_bytes;
  {
    smr::Domain d(kSlots);
    std::atomic<Node*> shared{make_node(0)};

    for (unsigned wave = 0; wave < kWaves; ++wave) {
      std::atomic<bool> stop{false};
      std::vector<std::thread> threads;
      threads.reserve(kSlots);

      for (unsigned r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
          const unsigned slot = r;  // readers own slots [0, kReaders)
          std::uint64_t reads = 0;
          while (!stop.load(std::memory_order_acquire)) {
            Node* n = d.protect(slot, 0, shared);
            // The hazard must make these reads safe even though a
            // writer may have already retired (but not freed) n.
            WCQ_CHECK(n->canary == Node::kAlive,
                      "reader saw freed node (canary %llx) after %llu reads",
                      (unsigned long long)n->canary,
                      (unsigned long long)reads);
            ++reads;
            d.clear_hazard(slot, 0);
          }
        });
      }
      for (unsigned w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
          const unsigned slot = kReaders + w;
          for (std::uint64_t i = 0; i < swaps_per_writer; ++i) {
            Node* fresh = make_node(i);
            Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
            d.retire(slot, old, &delete_node, nullptr);
            // The amnesty bound must hold with live readers too: what
            // the scans cannot free is limited to nodes actually
            // covered by the kReaders hazards.
            WCQ_CHECK(d.stats().retired_nodes <=
                          std::uint64_t{kSlots} * d.threshold() + kReaders,
                      "parked garbage unbounded under churn: %llu",
                      (unsigned long long)d.stats().retired_nodes);
          }
          stop.store(true, std::memory_order_release);
        });
      }
      for (auto& t : threads) t.join();

      // Wave teardown = handle recycling: every slot quiesces, and the
      // next wave inherits clean protection state.
      for (unsigned s = 0; s < kSlots; ++s) d.quiesce(s);
      WCQ_CHECK(d.stats().retired_nodes == 0,
                "quiesced domain still parks %llu nodes",
                (unsigned long long)d.stats().retired_nodes);
    }

    const auto st = d.stats();
    WCQ_CHECK(st.retire_calls == kWaves * kWriters * swaps_per_writer,
              "retire calls lost: %llu of %llu",
              (unsigned long long)st.retire_calls,
              (unsigned long long)(kWaves * kWriters * swaps_per_writer));
    delete_node(shared.load(std::memory_order_relaxed), nullptr);
  }
  WCQ_CHECK(mem::stats().live_bytes == mem_before,
            "churn leaked %llu bytes",
            (unsigned long long)(mem::stats().live_bytes - mem_before));
  std::printf("  ok smr_concurrent_churn (%u waves, %llu swaps/writer)\n",
              kWaves, (unsigned long long)swaps_per_writer);
}

}  // namespace

int main() {
  test_hazard_blocks_free();
  test_retire_threshold_bound();
  test_destructor_drains();
  test_concurrent_churn();
  return 0;
}
