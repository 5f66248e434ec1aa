// Differential fuzzing across the SCQ ring family. SCQ, CCQ, LSCQ and
// wCQ sit on the same ring kernel (scq_ring.hpp over one entry codec
// each, plus ring_noted for wCQ); NCQ shares only its Geometry and
// Remap. All five must be observationally identical FIFO queues; only
// their progress guarantees and boundedness differ. Four checks:
//
//  1. Serial differential vs a std::deque model on a randomized op
//     tape with fill/drain regime waves: every push accept/refuse and
//     every pop value must match the model exactly. The four bounded
//     members run a small ring (order 4, capacity 16) so the tape
//     wraps the cycle counter many times and hits full episodes;
//     LSCQ runs the unbounded variant (pushes may never refuse) with
//     order-4 segments so the tape crosses segment boundaries.
//  2. Tape agreement: one no-refusal tape (pending kept inside
//     (0, capacity) by construction) replayed on all five queues must
//     yield byte-identical pop traces.
//  3. Concurrent fuzz per queue: threads each run a random push/pop
//     mix over one queue; accounting must be exact (every accepted
//     push popped exactly once, nothing invented) and each popping
//     thread must see every pusher's values in monotone order.
//  4. LSCQ's segment contract, serially: close-and-sweep returns the
//     survivors in order, then certifies the ring sterile.
//  5. The kernel's read-only empty probe (SCQ and wCQ rings): exact
//     against the live count serially, and never "empty" before a
//     dequeue that finds a value once a concurrent mix has joined.
//  6. fill() against the enqueue loop it replaces, per index ring
//     (SCQ, LSCQ's finalizable ring, CCQ, wCQ, NCQ): equal state and
//     identical results on one seeded tape.
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "queue_test_common.hpp"
#include "wcq/ncq.hpp"
#include "wcq/queue.hpp"
#include "wcq/scq_ring.hpp"
#include "wcq/two_ring.hpp"
#include "wcq/wcq.hpp"

namespace {

using namespace wcq;

// Deterministic splitmix64: the tape must be identical across queues
// and across runs (failures reproduce).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

// ---- 1. serial differential vs std::deque ----

template <concepts::Queue Q>
void diff_model(const char* name, unsigned order, bool bounded,
                std::uint64_t ops) {
  Q q(options{}.max_threads(2).order(order));
  auto h = q.get_handle();
  const std::uint64_t cap = std::uint64_t{1} << order;

  std::deque<std::uint64_t> model;
  Rng rng{0x5ca1ab1e0ddba11ull};
  std::uint64_t next_value = 1;

  for (std::uint64_t i = 0; i < ops; ++i) {
    // Regime waves: 256 push-heavy ops, then 256 pop-heavy, so the
    // tape holds the ring near-full and near-empty in turn.
    const bool push_heavy = ((i >> 8) & 1) == 0;
    const unsigned push_pct = push_heavy ? 75 : 25;
    if (rng.next() % 100 < push_pct) {
      const std::uint64_t v = next_value++;
      const bool ok = q.try_push(v, h);
      const bool model_ok = !bounded || model.size() < cap;
      WCQ_CHECK(ok == model_ok,
                "%s: op %llu push(%llu) %s but model (size %zu/%llu) says %s",
                name, (unsigned long long)i, (unsigned long long)v,
                ok ? "accepted" : "refused", model.size(),
                (unsigned long long)cap, model_ok ? "accept" : "refuse");
      if (ok) model.push_back(v);
    } else {
      const auto v = q.try_pop(h);
      if (model.empty()) {
        WCQ_CHECK(!v.has_value(), "%s: op %llu popped %llu from empty model",
                  name, (unsigned long long)i, (unsigned long long)*v);
      } else {
        WCQ_CHECK(v.has_value(), "%s: op %llu empty but model holds %zu",
                  name, (unsigned long long)i, model.size());
        WCQ_CHECK(*v == model.front(), "%s: op %llu popped %llu want %llu",
                  name, (unsigned long long)i, (unsigned long long)*v,
                  (unsigned long long)model.front());
        model.pop_front();
      }
    }
  }
  // Drain: the survivors must come out in model order, then empty.
  while (!model.empty()) {
    const auto v = q.try_pop(h);
    WCQ_CHECK(v && *v == model.front(), "%s: drain diverged from model",
              name);
    model.pop_front();
  }
  WCQ_CHECK(!q.try_pop(h).has_value(), "%s: queue outlived its model", name);
  std::printf("  ok diff_model        %s\n", name);
}

// ---- 2. one tape, five queues, identical traces ----

struct TapeOp {
  bool push;
};

template <concepts::Queue Q>
std::vector<std::uint64_t> replay(const char* name, unsigned order,
                                  const std::vector<TapeOp>& tape) {
  Q q(options{}.max_threads(2).order(order));
  auto h = q.get_handle();
  std::vector<std::uint64_t> popped;
  std::uint64_t next_value = 1;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (tape[i].push) {
      WCQ_CHECK(q.try_push(next_value, h),
                "%s: no-refusal tape push %llu refused at op %zu", name,
                (unsigned long long)next_value, i);
      ++next_value;
    } else {
      const auto v = q.try_pop(h);
      WCQ_CHECK(v.has_value(), "%s: no-refusal tape pop empty at op %zu",
                name, i);
      popped.push_back(*v);
    }
  }
  return popped;
}

void test_tape_agreement() {
  // Pending stays inside (0, cap): pushes never refuse on a
  // capacity-16 ring and pops never hit empty, so every queue must
  // produce the same trace. Values still wrap the order-4 cycle
  // counter hundreds of times and cross several LSCQ segments.
  constexpr unsigned kOrder = 4;
  const std::uint64_t cap = std::uint64_t{1} << kOrder;
  const std::uint64_t ops = test::env_ops(20000);
  Rng rng{0xfee1900dull};
  std::vector<TapeOp> tape;
  tape.reserve(ops);
  std::uint64_t pending = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    bool push = rng.next() % 2 == 0;
    if (pending == 0) push = true;
    if (pending == cap) push = false;
    tape.push_back(TapeOp{push});
    pending = push ? pending + 1 : pending - 1;
  }

  const auto scq = replay<harness::ScqAdapter>("scq", kOrder, tape);
  const auto ncq = replay<harness::NcqAdapter>("ncq", kOrder, tape);
  const auto ccq = replay<harness::CcqAdapter>("ccq", kOrder, tape);
  const auto lscq = replay<harness::LscqAdapter>("lscq", kOrder, tape);
  const auto wcq_t = replay<harness::WcqAdapter>("wcq", kOrder, tape);

  WCQ_CHECK(ncq == scq, "ncq trace diverged from scq on a shared tape");
  WCQ_CHECK(ccq == scq, "ccq trace diverged from scq on a shared tape");
  WCQ_CHECK(lscq == scq, "lscq trace diverged from scq on a shared tape");
  WCQ_CHECK(wcq_t == scq, "wcq trace diverged from scq on a shared tape");
  std::printf("  ok tape_agreement    (%zu ops, %zu pops, 5 queues)\n",
              tape.size(), scq.size());
}

// ---- 3. concurrent randomized push/pop mix ----

template <concepts::Queue Q>
void fuzz_concurrent(const char* name, unsigned order) {
  constexpr unsigned kThreads = 4;
  const std::uint64_t per_thread = test::env_ops(12000);
  const std::uint64_t value_space = kThreads * per_thread;

  Q q(options{}.max_threads(kThreads + 1).order(order));
  std::vector<std::atomic<std::uint32_t>> seen(value_space);
  for (auto& s : seen) s.store(0, std::memory_order_relaxed);
  std::vector<std::uint64_t> pushed(kThreads, 0);
  std::atomic<bool> order_ok{true};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto h = q.get_handle();
      Rng rng{0xdecafbad + t};
      std::uint64_t seq = 0;
      std::vector<std::uint64_t> last(kThreads, 0);
      std::vector<bool> any(kThreads, false);
      for (std::uint64_t i = 0; i < per_thread * 2; ++i) {
        if (rng.next() % 2 == 0 && seq < per_thread) {
          // A refused push (bounded queue momentarily full) is simply
          // not retried; accounting only covers accepted pushes.
          if (q.try_push(t * per_thread + seq, h)) ++seq;
        } else if (const auto v = q.try_pop(h)) {
          WCQ_CHECK(*v < value_space, "%s: invented value %llu", name,
                    (unsigned long long)*v);
          seen[*v].fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t p = *v / per_thread;
          const std::uint64_t s = *v % per_thread;
          if (any[p] && s <= last[p]) {
            order_ok.store(false, std::memory_order_relaxed);
          }
          last[p] = s;
          any[p] = true;
        }
      }
      pushed[t] = seq;
    });
  }
  for (auto& th : threads) th.join();

  // Drain the survivors on the main thread, then audit: every value a
  // thread reports as pushed must have been seen exactly once, and no
  // unpushed value may appear at all.
  {
    auto h = q.get_handle();
    while (const auto v = q.try_pop(h)) {
      WCQ_CHECK(*v < value_space, "%s: invented value %llu in drain", name,
                (unsigned long long)*v);
      seen[*v].fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::uint64_t total_pushed = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    total_pushed += pushed[t];
    for (std::uint64_t s = 0; s < per_thread; ++s) {
      const std::uint64_t v = t * per_thread + s;
      const std::uint32_t count = seen[v].load(std::memory_order_relaxed);
      const std::uint32_t want = s < pushed[t] ? 1 : 0;
      WCQ_CHECK(count == want, "%s: value %llu seen %u times, want %u",
                name, (unsigned long long)v, count, want);
    }
  }
  WCQ_CHECK(order_ok.load(), "%s: per-producer FIFO order violated", name);
  std::printf("  ok fuzz_concurrent   %s (%llu of %llu pushes accepted)\n",
              name, (unsigned long long)total_pushed,
              (unsigned long long)value_space);
}

// ---- 4. the finalizable segment contract ----

// LSCQ's segment is the two-ring queue over a finalizable fq.
// pop_last() closes fq and sweeps what pre-close pushes left there, in
// push order; false certifies the ring sterile, and a closed ring
// refuses every later push.
void test_segment_contract() {
  TwoRingQueue<ScqRing, FinalScqRing> seg(options{}.order(3));
  for (std::uint64_t v = 1; v <= 5; ++v) {
    WCQ_CHECK(seg.push(v), "segment: push %llu refused", (unsigned long long)v);
  }
  std::uint64_t v = 0;
  WCQ_CHECK(seg.pop(&v) && v == 1, "segment: pop gave %llu, want 1",
            (unsigned long long)v);
  for (std::uint64_t want = 2; want <= 5; ++want) {
    v = 0;
    WCQ_CHECK(seg.pop_last(&v) && v == want, "segment: swept %llu, want %llu",
              (unsigned long long)v, (unsigned long long)want);
  }
  WCQ_CHECK(!seg.pop_last(&v), "segment: pop_last past the sweep gave %llu",
            (unsigned long long)v);
  WCQ_CHECK(!seg.push(6), "segment: closed ring accepted a push");
  WCQ_CHECK(!seg.pop(&v), "segment: closed ring popped %llu",
            (unsigned long long)v);
  std::printf("  ok segment_contract  lscq (4 of 5 swept after close)\n");
}

// ---- 5. the read-only empty probe ----

// looks_empty() on a bare index ring. Serially it must equal "live
// count == 0" after every op, over fill/drain waves that wrap an
// order-3 ring's cycle counter many times and runs of empty dequeues
// long enough to spend the threshold (3n-1 = 23). Concurrently,
// threads pass a fixed set of tokens through the ring; after each
// join the ring is drained, and a probe that says empty must be
// followed by a dequeue that says kEmpty. Every token must come back
// exactly once per round.
template <typename Ring>
void test_probe(const char* name) {
  constexpr unsigned kOrder = 3;
  constexpr std::uint64_t kCap = std::uint64_t{1} << kOrder;
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kTokens = kCap / kThreads;
  std::vector<RingRequest> reqs(kThreads + 1);  // noted rings need them
  Ring ring(kOrder, /*remap=*/true, /*portable=*/false, reqs.data(),
            /*is_fq=*/true);

  std::deque<std::uint64_t> live;
  std::vector<std::uint64_t> free_idx;
  for (std::uint64_t i = 0; i < kCap; ++i) free_idx.push_back(i);
  Rng rng{0x9b0be5ull};
  std::uint64_t op = 0;
  const auto check = [&] {
    ++op;
    WCQ_CHECK(ring.looks_empty() == live.empty(),
              "%s: op %llu probe says %s with %zu live", name,
              (unsigned long long)op,
              ring.looks_empty() ? "empty" : "non-empty", live.size());
  };
  check();
  const std::uint64_t waves = test::env_ops(3000) / 4;
  for (std::uint64_t w = 0; w < waves; ++w) {
    const std::uint64_t fill = rng.next() % (free_idx.size() + 1);
    for (std::uint64_t i = 0; i < fill; ++i) {
      const std::uint64_t idx = free_idx.back();
      free_idx.pop_back();
      WCQ_CHECK(ring.enqueue_idx(idx, Ring::kUnbounded) == Ring::kOk,
                "%s: enqueue refused", name);
      live.push_back(idx);
      check();
    }
    // Every 8th wave makes at least 32 empty dequeues: past the 24
    // that spend the threshold.
    const std::uint64_t extra = w % 8 == 7 ? 40 : rng.next() % 3;
    const std::uint64_t drain = rng.next() % (live.size() + 1) + extra;
    for (std::uint64_t i = 0; i < drain; ++i) {
      std::uint64_t idx = 0;
      const auto rc = ring.dequeue_idx(&idx, Ring::kUnbounded);
      if (live.empty()) {
        WCQ_CHECK(rc == Ring::kEmpty, "%s: dequeue on empty gave %d", name,
                  (int)rc);
      } else {
        WCQ_CHECK(rc == Ring::kOk && idx == live.front(),
                  "%s: dequeue gave rc %d idx %llu, want %llu", name, (int)rc,
                  (unsigned long long)idx,
                  (unsigned long long)live.front());
        live.pop_front();
        free_idx.push_back(idx);
      }
      check();
    }
  }
  while (!live.empty()) {
    std::uint64_t idx = 0;
    WCQ_CHECK(ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kOk &&
                  idx == live.front(),
              "%s: serial drain diverged", name);
    live.pop_front();
    check();
  }

  const std::uint64_t rounds = 40;
  const std::uint64_t per_thread = test::env_ops(4000);
  std::uint64_t left_in_ring = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::vector<std::vector<std::uint64_t>> held(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      for (std::uint64_t k = 0; k < kTokens; ++k) {
        held[t].push_back(t * kTokens + k);
      }
    }
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng trng{0xabcdef + r * kThreads + t};
        auto& mine = held[t];
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          if (!mine.empty() && trng.next() % 2 == 0) {
            WCQ_CHECK(ring.enqueue_idx(mine.back(), Ring::kUnbounded) ==
                          Ring::kOk,
                      "%s: concurrent enqueue refused", name);
            mine.pop_back();
          } else {
            std::uint64_t idx = 0;
            if (ring.dequeue_idx(&idx, Ring::kUnbounded) == Ring::kOk) {
              mine.push_back(idx);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    std::vector<unsigned> count(kCap, 0);
    for (const auto& mine : held) {
      for (std::uint64_t idx : mine) ++count[idx];
    }
    for (;;) {
      const bool probe = ring.looks_empty();
      std::uint64_t idx = 0;
      const auto rc = ring.dequeue_idx(&idx, Ring::kUnbounded);
      WCQ_CHECK(!probe || rc == Ring::kEmpty,
                "%s: round %llu probe said empty, dequeue gave %llu", name,
                (unsigned long long)r, (unsigned long long)idx);
      if (rc != Ring::kOk) break;
      WCQ_CHECK(idx < kCap, "%s: invented index %llu", name,
                (unsigned long long)idx);
      ++count[idx];
      ++left_in_ring;
    }
    WCQ_CHECK(ring.looks_empty(), "%s: drained ring probes non-empty", name);
    for (std::uint64_t idx = 0; idx < kCap; ++idx) {
      WCQ_CHECK(count[idx] == 1, "%s: round %llu token %llu seen %u times",
                name, (unsigned long long)r, (unsigned long long)idx,
                count[idx]);
    }
  }
  std::printf(
      "  ok probe             %s (%llu serial ops; %llu rounds left %llu "
      "tokens in the ring)\n",
      name, (unsigned long long)op, (unsigned long long)rounds,
      (unsigned long long)left_in_ring);
}

// ---- 6. fill() against the enqueue loop ----

// A ring started full by fill() must be indistinguishable from a twin
// that enqueued 0..n-1: equal head/tail/probe where the ring exposes
// them, after setup and after every op, and identical results for
// every op of one seeded tape — an in-order drain of 0..n-1, then
// fill/drain waves that wrap the cycle counter many times, every 4th
// with a run of empty dequeues long enough to spend the threshold.
template <typename Ring>
void test_fill(const char* name, unsigned order) {
  std::vector<RingRequest> reqs(2);  // noted rings need them
  const auto make = [&] {
    if constexpr (std::is_same_v<Ring, NcqRing>) {
      return std::make_unique<Ring>(order, /*remap=*/true);
    } else {
      return std::make_unique<Ring>(order, /*remap=*/true,
                                    /*portable=*/false, reqs.data());
    }
  };
  const auto filled = make();
  const auto looped = make();
  filled->fill();
  const std::uint64_t cap = looped->capacity();
  for (std::uint64_t i = 0; i < cap; ++i) {
    WCQ_CHECK(looped->enqueue_idx(i, Ring::kUnbounded) == Ring::kOk,
              "%s: loop enqueue %llu refused", name, (unsigned long long)i);
  }

  std::uint64_t op = 0;
  const auto same_state = [&] {
    if constexpr (requires { filled->head(); }) {
      WCQ_CHECK(filled->head() == looped->head() &&
                    filled->tail() == looped->tail(),
                "%s: op %llu head/tail %llu/%llu, loop twin %llu/%llu", name,
                (unsigned long long)op, (unsigned long long)filled->head(),
                (unsigned long long)filled->tail(),
                (unsigned long long)looped->head(),
                (unsigned long long)looped->tail());
      WCQ_CHECK(filled->looks_empty() == looped->looks_empty(),
                "%s: op %llu probe %d, loop twin %d", name,
                (unsigned long long)op, (int)filled->looks_empty(),
                (int)looped->looks_empty());
    }
  };
  const auto enqueue = [&](std::uint64_t idx) {
    ++op;
    const auto a = filled->enqueue_idx(idx, Ring::kUnbounded);
    const auto b = looped->enqueue_idx(idx, Ring::kUnbounded);
    WCQ_CHECK(a == Ring::kOk && b == Ring::kOk,
              "%s: op %llu enqueue %llu gave %d, loop twin %d", name,
              (unsigned long long)op, (unsigned long long)idx, (int)a,
              (int)b);
    same_state();
  };
  // Both rings dequeue; the results must match. Returns the index, or
  // cap for an empty ring.
  const auto dequeue = [&] {
    ++op;
    std::uint64_t x = cap;
    std::uint64_t y = cap;
    const auto a = filled->dequeue_idx(&x, Ring::kUnbounded);
    const auto b = looped->dequeue_idx(&y, Ring::kUnbounded);
    WCQ_CHECK(a == b && x == y,
              "%s: op %llu dequeue gave %d/%llu, loop twin %d/%llu", name,
              (unsigned long long)op, (int)a, (unsigned long long)x, (int)b,
              (unsigned long long)y);
    WCQ_CHECK(a == Ring::kOk || a == Ring::kEmpty,
              "%s: op %llu dequeue gave %d", name, (unsigned long long)op,
              (int)a);
    same_state();
    return a == Ring::kOk ? x : cap;
  };

  same_state();
  std::deque<std::uint64_t> live;
  std::vector<std::uint64_t> free_idx;
  for (std::uint64_t i = 0; i < cap; ++i) {
    const std::uint64_t idx = dequeue();
    WCQ_CHECK(idx == i, "%s: drain gave %llu, want %llu", name,
              (unsigned long long)idx, (unsigned long long)i);
    free_idx.push_back(idx);
  }
  Rng rng{0xf111ed + order};
  const std::uint64_t waves = 64;
  for (std::uint64_t w = 0; w < waves; ++w) {
    const std::uint64_t n = rng.next() % (free_idx.size() + 1);
    for (std::uint64_t i = 0; i < n; ++i) {
      enqueue(free_idx.back());
      live.push_back(free_idx.back());
      free_idx.pop_back();
    }
    const std::uint64_t extra = w % 4 == 3 ? 3 * cap + 8 : rng.next() % 3;
    const std::uint64_t drain = rng.next() % (live.size() + 1) + extra;
    for (std::uint64_t i = 0; i < drain; ++i) {
      const std::uint64_t idx = dequeue();
      const std::uint64_t want = live.empty() ? cap : live.front();
      WCQ_CHECK(idx == want, "%s: op %llu dequeue gave %llu, want %llu", name,
                (unsigned long long)op, (unsigned long long)idx,
                (unsigned long long)want);
      if (!live.empty()) {
        live.pop_front();
        free_idx.push_back(idx);
      }
    }
  }
  std::printf("  ok fill              %s order %u (%llu ops)\n", name, order,
              (unsigned long long)op);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t ops = test::env_ops(60000);
  // Serial model differential: bounded members on a tiny ring, LSCQ
  // unbounded across segments.
  if (test::selected(argc, argv, "scq")) {
    diff_model<harness::ScqAdapter>("scq", 4, true, ops);
    fuzz_concurrent<harness::ScqAdapter>("scq", 6);
    test_probe<ScqRing>("scq");
    test_fill<ScqRing>("scq", 3);
    test_fill<ScqRing>("scq", 7);
  }
  if (test::selected(argc, argv, "ncq")) {
    diff_model<harness::NcqAdapter>("ncq", 4, true, ops);
    fuzz_concurrent<harness::NcqAdapter>("ncq", 6);
    test_fill<NcqRing>("ncq", 3);
    test_fill<NcqRing>("ncq", 7);
  }
  if (test::selected(argc, argv, "ccq")) {
    diff_model<harness::CcqAdapter>("ccq", 4, true, ops);
    fuzz_concurrent<harness::CcqAdapter>("ccq", 6);
    test_fill<CcqRing>("ccq", 3);
    test_fill<CcqRing>("ccq", 7);
  }
  if (test::selected(argc, argv, "wcq")) {
    diff_model<harness::WcqAdapter>("wcq", 4, true, ops);
    fuzz_concurrent<harness::WcqAdapter>("wcq", 6);
    test_probe<WcqRing>("wcq");
    test_fill<WcqRing>("wcq", 3);
    test_fill<WcqRing>("wcq", 7);
  }
  if (test::selected(argc, argv, "lscq")) {
    diff_model<harness::LscqAdapter>("lscq", 4, false, ops);
    fuzz_concurrent<harness::LscqAdapter>("lscq", 4);
    test_segment_contract();
    test_fill<FinalScqRing>("lscq", 3);
    test_fill<FinalScqRing>("lscq", 7);
  }
  if (argc < 2 || test::selected(argc, argv, "family")) {
    test_tape_agreement();
  }
  return 0;
}
